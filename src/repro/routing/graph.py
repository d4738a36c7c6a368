"""The one graph of this code base: adjacency dicts and three searches.

Everything asked of a graph here is four questions — the component of
a node, the BFS tree from the FM, one shortest path, and whether two
edge sets are equal — so this module is the whole graph library.

**Order is a contract, not an accident.**  ``nodes`` and ``adj`` keep
insertion order, the searches scan neighbours in adjacency order, and
:func:`shortest_path` breaks ties exactly as the bidirectional search
it replaced (networkx's): the traffic generator's routes, the service's
``path`` answers and the routes the FM programs are all pinned, bit for
bit, by which of several equally short paths comes out.  Change a scan
order here and the load goldens move.
"""


class NoPath(Exception):
    """An end is not in the graph, or the two are not connected."""


class Graph:
    """Undirected graph without parallel edges.

    ``nodes`` maps a node to its attributes; ``adj[a][b]`` and
    ``adj[b][a]`` are one shared attribute dict.  Re-adding a node or
    an edge keeps its position and merges the attributes.
    """

    def __init__(self):
        self.nodes, self.adj = {}, {}

    def add_node(self, node, /, **attrs) -> None:
        self.adj.setdefault(node, {})
        self.nodes.setdefault(node, {}).update(attrs)

    def add_edge(self, a, b, /, **attrs) -> None:
        """Join ``a`` and ``b`` (added in that order when new)."""
        if a not in self.adj or b not in self.adj:
            self.add_node(a)
            self.add_node(b)
        shared = self.adj[a][b] = self.adj[b][a] = self.adj[a].get(b, {})
        shared.update(attrs)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node) -> bool:
        return node in self.nodes

    @property
    def edges(self) -> list[tuple]:
        """Each edge once, at its first end in node order, then in
        adjacency order (a self-loop is one edge)."""
        pos = {node: index for index, node in enumerate(self.adj)}
        return [(a, b) for a in pos for b in self.adj[a] if pos[b] >= pos[a]]

    def number_of_edges(self) -> int:
        return len(self.edges)


def _expand(adj, fringe: list, seen: dict, other) -> tuple:
    """Grow one BFS level into ``seen`` (``{node: finder}``); stops at
    the first neighbour scanned that ``other`` holds and returns it."""
    following = []
    for v in fringe:
        for w in adj[v]:
            if w not in seen:
                seen[w] = v
                following.append(w)
            if w in other:
                return following, w
    return following, None


def bfs_tree(graph: Graph, source) -> dict:
    """``{node: parent}`` of the shortest-path tree from ``source``
    (whose own parent is None).

    Level-synchronous: a level's nodes are expanded in the order they
    were found and their neighbours in adjacency order, so the dict's
    order is the discovery order and the first finder is the parent.
    """
    parent, level = {source: None}, [source]
    while level:
        level, _ = _expand(graph.adj, level, parent, ())
    return parent


def component(graph: Graph, origin) -> set:
    """The nodes connected to ``origin``, itself included."""
    return set(bfs_tree(graph, origin))


def _chain(links: dict, node) -> list:
    """``node`` and everything ``links`` leads it to, in order."""
    chain = []
    while node is not None:
        chain.append(node)
        node = links[node]
    return chain


def shortest_path(graph: Graph, src, dst) -> list:
    """One shortest ``src .. dst`` node list; :class:`NoPath` if none.

    Bidirectional: the smaller fringe is expanded, the forward one on
    a tie, and the first node scanned that the other side has reached
    joins the halves (see the module docstring before touching this).
    """
    if src not in graph or dst not in graph:
        raise NoPath(f"{src!r} or {dst!r} is not in the graph")
    pred, succ = {src: None}, {dst: None}
    forward, reverse = [src], [dst]
    meet = src if src == dst else None
    while meet is None and forward and reverse:
        if len(forward) <= len(reverse):
            forward, meet = _expand(graph.adj, forward, pred, succ)
        else:
            reverse, meet = _expand(graph.adj, reverse, succ, pred)
    if meet is None:
        raise NoPath(f"no path between {src!r} and {dst!r}")
    return _chain(pred, meet)[::-1] + _chain(succ, succ[meet])
