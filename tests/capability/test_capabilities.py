"""Unit tests for configuration space and capability structures."""

import pytest
from hypothesis import given, strategies as st

from repro.capability import (
    BASELINE_CAP_ID,
    EVENT_ROUTE_CAP_ID,
    PATH_TABLE_CAP_ID,
    ConfigSpace,
    ConfigSpaceError,
    EventRouteCapability,
    PathTableCapability,
    RegisterBlock,
    RegisterError,
    decode_general_info,
    decode_port_status,
    pack_u64,
    port_block_offset,
    unpack_u64,
)
from repro.capability.baseline import (
    DEVICE_TYPE_ENDPOINT,
    DEVICE_TYPE_SWITCH,
    GENERAL_INFO_DWORDS,
)
from repro.fabric import Fabric
from repro.sim import Environment


@pytest.fixture
def fabric():
    env = Environment()
    fabric = Fabric(env)
    fabric.add_endpoint("ep")
    fabric.add_switch("sw")
    fabric.connect("ep", 0, "sw", 0)
    fabric.power_up()
    return fabric


class TestRegisterBlock:
    def test_read_write_roundtrip(self):
        block = RegisterBlock(4)
        block.write(1, [0xDEADBEEF, 0x12345678])
        assert block.read(1, 2) == [0xDEADBEEF, 0x12345678]

    def test_bounds_checked(self):
        block = RegisterBlock(2)
        with pytest.raises(RegisterError):
            block.read(1, 2)
        with pytest.raises(RegisterError):
            block.write(2, [0])
        with pytest.raises(RegisterError):
            block.read(0, 0)

    def test_non_dword_value_rejected(self):
        block = RegisterBlock(1)
        with pytest.raises(RegisterError):
            block.write(0, [1 << 32])

    @given(st.integers(0, (1 << 64) - 1))
    def test_u64_pack_roundtrip(self, value):
        assert unpack_u64(*pack_u64(value)) == value


class TestBaselineCapability:
    def test_general_info_decodes(self, fabric):
        sw = fabric.device("sw")
        dwords = sw.config_space.read(BASELINE_CAP_ID, 0, GENERAL_INFO_DWORDS)
        info = decode_general_info(dwords)
        assert info["type_code"] == DEVICE_TYPE_SWITCH
        assert info["nports"] == 16
        assert info["dsn"] == sw.dsn
        assert info["active"] is True

    def test_endpoint_type_and_fm_flags(self, fabric):
        ep = fabric.device("ep")
        dwords = ep.config_space.read(BASELINE_CAP_ID, 0, GENERAL_INFO_DWORDS)
        info = decode_general_info(dwords)
        assert info["type_code"] == DEVICE_TYPE_ENDPOINT
        assert info["nports"] == 1
        assert info["fm_capable"] is True

    def test_port_status_tracks_link_state(self, fabric):
        sw = fabric.device("sw")
        offset = port_block_offset(0)
        status = decode_port_status(
            sw.config_space.read(BASELINE_CAP_ID, offset, 1)[0]
        )
        assert status["up"] is True
        # Unconnected port reads down.
        status5 = decode_port_status(
            sw.config_space.read(BASELINE_CAP_ID, port_block_offset(5), 1)[0]
        )
        assert status5["up"] is False
        # Fail the link: the same read now shows down.
        fabric.fail_link("ep", "sw")
        status = decode_port_status(
            sw.config_space.read(BASELINE_CAP_ID, offset, 1)[0]
        )
        assert status["up"] is False

    def test_baseline_is_read_only(self, fabric):
        sw = fabric.device("sw")
        with pytest.raises(ConfigSpaceError):
            sw.config_space.write(BASELINE_CAP_ID, 0, [0])

    def test_out_of_range_port_block_rejected(self, fabric):
        ep = fabric.device("ep")  # 1 port -> 8 dwords total
        with pytest.raises(ConfigSpaceError):
            ep.config_space.read(BASELINE_CAP_ID, port_block_offset(2), 1)

    def test_decode_general_info_needs_six_dwords(self):
        with pytest.raises(ValueError):
            decode_general_info([0, 0, 0])


class TestConfigSpace:
    def test_unknown_capability_errors(self, fabric):
        with pytest.raises(ConfigSpaceError, match="no capability"):
            fabric.device("sw").config_space.read(0x7F, 0, 1)

    def test_read_count_limited_to_eight(self, fabric):
        sw = fabric.device("sw")
        with pytest.raises(ConfigSpaceError):
            sw.config_space.read(BASELINE_CAP_ID, 0, 9)
        assert len(sw.config_space.read(BASELINE_CAP_ID, 0, 8)) == 8

    def test_duplicate_capability_rejected(self):
        space = ConfigSpace()
        space.add(EventRouteCapability())
        with pytest.raises(ValueError):
            space.add(EventRouteCapability())

    def test_capability_ids_listed(self, fabric):
        ids = fabric.device("ep").config_space.capability_ids()
        assert BASELINE_CAP_ID in ids
        assert EVENT_ROUTE_CAP_ID in ids
        assert PATH_TABLE_CAP_ID in ids

    def test_empty_write_rejected(self, fabric):
        ep = fabric.device("ep")
        with pytest.raises(ConfigSpaceError):
            ep.config_space.write(EVENT_ROUTE_CAP_ID, 0, [])


class TestEventRouteCapability:
    def test_set_and_get_route(self):
        cap = EventRouteCapability()
        assert cap.get_route() is None
        cap.set_route(turn_pool=0xABCDEF0123, turn_pointer=17, out_port=3)
        assert cap.get_route() == (0xABCDEF0123, 17, 3)

    def test_clear_invalidates(self):
        cap = EventRouteCapability()
        cap.set_route(0x1, 1, 0)
        cap.clear()
        assert cap.get_route() is None

    def test_raw_dword_write_visible_via_typed_read(self):
        cap = EventRouteCapability()
        cap.write(0, [(1 << 31) | (2 << 7) | 5, 0, 0x42])
        assert cap.get_route() == (0x42, 5, 2)


class TestPathTableCapability:
    def test_raw_dwords_round_trip(self):
        table = PathTableCapability(max_entries=2)
        assert len(table) == 10
        table.write(5, [1 << 31, 0, 0xBB])
        assert table.read(4, 4) == [0, 1 << 31, 0, 0xBB]

    def test_index_bounds(self):
        table = PathTableCapability(max_entries=2)
        with pytest.raises(RegisterError):
            table.write(8, [1, 2, 3])

    def test_validation(self):
        with pytest.raises(ValueError):
            PathTableCapability(max_entries=0)
