"""Reference implementations the tests compare ``src/`` against.

Clear, slow forms of code that ``src/`` has since rewritten for speed,
kept outside the package (so outside the LOC ratchet and the import
budget) and moved here unchanged: a differential test against one of
these settles a "pure function of its inputs" claim completely.
"""
