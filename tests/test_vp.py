"""Tests for the value-prediction unit."""

import pytest

from repro.cache import L2Cache
from repro.config import (
    AddressMapping,
    GPUConfig,
    L2Config,
    VPConfig,
    baseline_scheduler,
    gddr5_timings,
)
from repro.dram import Channel, MemoryRequest
from repro.errors import ConfigError
from repro.sched import MemoryController
from repro.sim.engine import Engine
from repro.vp import (
    LastValuePredictor,
    NearestLinePredictor,
    OraclePredictor,
    ZeroPredictor,
    make_predictor,
)

MAPPING = AddressMapping()


def read_request(addr: int) -> MemoryRequest:
    return MemoryRequest.from_address(
        addr, is_write=False, mapping=MAPPING, approximable=True
    )


def small_l2() -> L2Cache:
    return L2Cache(
        L2Config(size_bytes=8 * 128 * 4, associativity=4, line_bytes=128,
                 mshr_entries=8)
    )


class TestNearestLinePredictor:
    def test_predicts_nearest_resident_line(self) -> None:
        l2 = small_l2()
        l2.access(5 * 128, is_write=True, full_line=True)
        l2.access(40 * 128, is_write=True, full_line=True)
        vp = NearestLinePredictor(l2, search_radius_sets=8)
        assert vp.predict(read_request(6 * 128)) == 5

    def test_empty_cache_gives_none(self) -> None:
        vp = NearestLinePredictor(small_l2(), search_radius_sets=2)
        assert vp.predict(read_request(0)) is None


class TestOtherPredictors:
    def test_last_value_tracks_fills(self) -> None:
        vp = LastValuePredictor()
        assert vp.predict(read_request(0)) is None
        vp.on_fill(77)
        assert vp.predict(read_request(0)) == 77

    def test_zero_predictor(self) -> None:
        assert ZeroPredictor().predict(read_request(128)) is None

    def test_oracle_returns_own_line(self) -> None:
        vp = OraclePredictor(line_bytes=128)
        assert vp.predict(read_request(5 * 128)) == 5


class TestControllerFillHook:
    """The controller tells a predictor each served read's line only when
    the predictor overrides the base class's no-op ``on_fill``."""

    def serve_read(self, predictor, addr: int) -> MemoryController:
        config = GPUConfig()
        engine = Engine()
        mc = MemoryController(
            Channel(0, config.mapping, gddr5_timings()),
            config=config, sched_config=baseline_scheduler(), engine=engine,
            reply_fn=lambda request, approx, donor: None, predictor=predictor,
        )
        request = read_request(addr)
        engine.at(0.0, lambda: mc.submit(request))
        engine.run()
        assert mc.channel.stats.reads_served == 1
        return mc

    def test_history_predictor_sees_each_served_read(self) -> None:
        vp = LastValuePredictor()
        self.serve_read(vp, 6 * 256)  # channel 0, line 12
        assert vp.predict(read_request(0)) == 12

    @pytest.mark.parametrize("kind", ["nearest_line", "zero", "oracle"])
    def test_stateless_predictor_is_not_called(self, kind) -> None:
        vp = make_predictor(VPConfig(kind=kind), small_l2())
        assert self.serve_read(vp, 6 * 256)._on_fill is None


class TestFactory:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("nearest_line", NearestLinePredictor),
            ("last_value", LastValuePredictor),
            ("zero", ZeroPredictor),
            ("oracle", OraclePredictor),
        ],
    )
    def test_factory_kinds(self, kind, cls) -> None:
        vp = make_predictor(VPConfig(kind=kind), small_l2())
        assert isinstance(vp, cls)

    def test_unknown_kind_rejected(self) -> None:
        cfg = VPConfig()
        object.__setattr__(cfg, "kind", "psychic")
        with pytest.raises(ConfigError):
            make_predictor(cfg, small_l2())
