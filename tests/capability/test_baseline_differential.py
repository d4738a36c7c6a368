"""The one-pass baseline capability against its per-dword reference.

``BaselineCapability.read`` composes a read in one pass and
``decode_general_info`` / ``decode_port_status`` use shifts; the forms
they replaced — one ``_render`` call chain per dword, one ``get_field``
per field — live on unchanged in ``tests/reference/baseline.py``.  Both
are pure functions of the device state and the arguments, so equality
over generated states and *every* ``(offset, count)`` settles the
rewrite: same list, or the same exception type and message.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.capability import (
    BASELINE_CAP_ID,
    BaselineCapability,
    ConfigSpace,
    decode_general_info,
    decode_port_status,
)
from repro.capability.baseline import GENERAL_INFO_DWORDS, PORT_BLOCK_DWORDS
from repro.fabric import Fabric
from repro.sim import Environment
from tests.reference import baseline as reference


def outcome(call, *args):
    """What a call did: its result, or the exception's type and text."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - the verdict is the point
        return type(exc), str(exc)


def device(kind="switch", nports=16, **fields):
    """A device as the capability sees one: attributes, nothing else.
    A switch has no ``fm_capable`` at all, like the real one."""
    state = dict(
        type_code=2 if kind == "switch" else 1,
        ports=[SimpleNamespace(is_up=False, error_count=0)
               for _ in range(nports)],
        max_payload_code=5, active=True, dsn=0xA51_0000_0001,
        vendor_id=0xA51, device_id=1, capability_version=0x0100,
    )
    if kind == "endpoint":
        state.update(fm_capable=True)
    state.update(fields)
    return SimpleNamespace(**state)


@st.composite
def devices(draw):
    kind = draw(st.sampled_from(["endpoint", "switch"]))
    nports = draw(st.one_of(st.integers(1, 8), st.integers(1, 128)))
    fields = dict(active=draw(st.booleans()),
                  dsn=draw(st.integers(0, (1 << 64) - 1)))
    if kind == "endpoint":
        fields.update(fm_capable=draw(st.booleans()))
    state = device(kind, nports, **fields)
    for port in state.ports:
        port.is_up = draw(st.booleans())
        port.error_count = draw(st.one_of(
            st.integers(0, 3), st.integers(0, 1 << 40)))
    return state


def every_access(size):
    """Every offset from -1 to past the end, with the counts that
    matter: none, one, the PI-4 sizes, to the end and one beyond."""
    for offset in range(-1, size + 2):
        for count in {-1, 0, 1, 2, 3, 6, 8, 9, size - offset,
                      size - offset + 1, size + 1}:
            yield offset, count


def assert_same_reads(state):
    new, old = BaselineCapability(state), reference.BaselineCapability(state)
    assert len(new) == len(old)
    compared = 0
    for offset, count in every_access(len(old)):
        assert outcome(new.read, offset, count) == \
            outcome(old.read, offset, count), (offset, count)
        compared += 1
    return compared


class TestReadsAgree:
    @settings(max_examples=60, deadline=None)
    @given(devices())
    def test_over_generated_device_states(self, state):
        assert assert_same_reads(state) > 0

    @pytest.mark.parametrize("fields", [
        dict(type_code=256), dict(type_code=-1),
        dict(max_payload_code=256), dict(max_payload_code=300),
        dict(dsn=1 << 64), dict(dsn=-1),
        dict(type_code=999, dsn=1 << 70),  # dword 0 is named first
        dict(type_code=300, max_payload_code=300),
    ], ids=repr)
    def test_a_field_wider_than_its_bits_raises_what_it_did(self, fields):
        """``set_field`` / ``pack_u64``'s own errors, and only for a
        read that covers the offending dword."""
        state = device("endpoint", 2, **fields)
        assert_same_reads(state)
        new = BaselineCapability(state)
        assert isinstance(new.read(3, 3), list)  # neither dword asked
        with pytest.raises(ValueError):
            new.read(0, 3)

    def test_more_ports_than_the_count_field_holds(self):
        state = device("switch", 256)
        assert_same_reads(state)
        with pytest.raises(ValueError, match="exceeds 8-bit field"):
            BaselineCapability(state).read(0, 1)

    def test_through_the_config_space_errors_become_config_errors(self):
        """``RegisterError`` -> ``ConfigSpaceError``, text and status."""
        state = device("switch", 3)
        spaces = []
        for capability in (BaselineCapability(state),
                           reference.BaselineCapability(state)):
            space = ConfigSpace()
            space.add(capability)
            spaces.append(space)

        def read(space, offset, count):
            try:
                return space.read(BASELINE_CAP_ID, offset, count)
            except Exception as exc:  # noqa: BLE001
                return type(exc), str(exc), getattr(exc, "status", None)
        for offset, count in every_access(len(spaces[1].capability(0))):
            assert read(spaces[0], offset, count) == \
                read(spaces[1], offset, count), (offset, count)


class TestPortDwordsAreLive:
    def test_a_read_sees_the_port_as_it_is_now(self):
        """Nothing rendered is kept: flip the link, read again."""
        env = Environment()
        fabric = Fabric(env)
        fabric.add_endpoint("ep")
        fabric.add_switch("sw")
        fabric.connect("ep", 0, "sw", 3)
        fabric.power_up()
        env.run()
        sw = fabric.device("sw")
        new, old = BaselineCapability(sw), reference.BaselineCapability(sw)
        offset = GENERAL_INFO_DWORDS + PORT_BLOCK_DWORDS * 3
        up = new.read(offset, 2)
        assert decode_port_status(up[0])["up"] and up == old.read(offset, 2)
        fabric.fail_link("ep", "sw")
        sw.ports[3].error_count = (1 << 40) + 7
        down = new.read(offset, 2)
        assert not decode_port_status(down[0])["up"]
        assert down == old.read(offset, 2) and down[1] == 7
        assert_same_reads(sw)
        assert_same_reads(fabric.device("ep"))
        sw.power_off()  # ``active`` is read per access too
        assert new.read(0, 1) == old.read(0, 1) != up[:1]
        assert not decode_general_info(new.read(0, 6))["active"]


DWORDS = st.integers(0, 0xFFFFFFFF)


class TestDecodersAgree:
    @given(st.lists(DWORDS, min_size=0, max_size=9))
    def test_general_info(self, dwords):
        for sequence in (dwords, tuple(dwords)):
            assert outcome(decode_general_info, sequence) == \
                outcome(reference.decode_general_info, sequence)

    @given(st.one_of(DWORDS, st.integers(-(1 << 40), 1 << 40)))
    def test_port_status(self, dword):
        assert decode_port_status(dword) == \
            reference.decode_port_status(dword)

    def test_a_rendered_block_decodes_to_the_device(self):
        state = device("endpoint", 4, dsn=0xFEED_0000_BEEF, active=False)
        state.ports[2].is_up = True
        block = BaselineCapability(state).read(0, 8)
        info = decode_general_info(block)
        assert info == reference.decode_general_info(block)
        assert (info["dsn"], info["nports"], info["active"],
                info["fm_capable"]) == (0xFEED_0000_BEEF, 4, False, True)
        assert block[5] == 0  # reserved
