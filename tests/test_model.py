"""Validation behavior of the shared domain types."""

import math

import pytest

from photondemux.model import (
    ConfigError,
    ConverterParams,
    EfficiencyEstimate,
    RoutingStrategy,
    SimulationConfig,
    SourceParams,
    deadtime_to_slots,
)


def make_source(**overrides):
    base = dict(pair_prob=0.01, rep_rate_hz=82e6)
    base.update(overrides)
    return SourceParams(**base)


class TestDeadtimeToSlots:
    def test_fractional_deadtime_rounds_up(self):
        assert deadtime_to_slots(40e-9, 82e6) == 4  # 3.28 slots of blindness

    def test_exact_integer_product_is_not_bumped(self):
        # 25 ns at 80 MHz is exactly 2 slots; float fuzz must not make it 3
        assert deadtime_to_slots(25e-9, 80e6) == 2
        assert deadtime_to_slots(0.3, 10) == 3

    def test_zero_deadtime(self):
        assert deadtime_to_slots(0.0, 82e6) == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            deadtime_to_slots(-1e-9, 82e6)
        with pytest.raises(ConfigError):
            deadtime_to_slots(40e-9, 0.0)


class TestSourceParams:
    def test_defaults(self):
        p = make_source()
        assert p.herald_det_efficiency == 1.0
        assert p.herald_deadtime_slots == 0
        assert p.herald_splitter_ratio == 0.5

    @pytest.mark.parametrize("field,value", [
        ("pair_prob", -0.1),
        ("pair_prob", 1.5),
        ("pair_prob", float("nan")),
        ("herald_det_efficiency", 2.0),
        ("herald_splitter_ratio", -1.0),
        ("signal_det_efficiency", 1.0001),
        ("rep_rate_hz", 0.0),
        ("rep_rate_hz", -82e6),
        ("herald_deadtime_slots", -1),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError):
            make_source(**{field: value})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            make_source().pair_prob = 0.5


class TestConverterParams:
    def test_port_efficiencies_default_to_ideal(self):
        c = ConverterParams(n_modes=3)
        assert c.port_efficiencies == (1.0, 1.0, 1.0)

    def test_switching_efficiency_composes_loss_and_routing(self):
        c = ConverterParams(n_modes=2, transmittance=0.731, port_efficiencies=(0.99, 0.98))
        assert c.switching_efficiency == pytest.approx(0.731 * 0.985)

    def test_strategy_parsed_from_string(self):
        c = ConverterParams(n_modes=2, strategy="clocked")
        assert c.strategy is RoutingStrategy.ACTIVE_CLOCKED

    def test_wrong_port_count_rejected(self):
        with pytest.raises(ConfigError):
            ConverterParams(n_modes=2, port_efficiencies=(0.9,))

    def test_bad_strategy_rejected(self):
        with pytest.raises(ConfigError):
            ConverterParams(n_modes=2, strategy="quantum")

    @pytest.mark.parametrize("n", [0, -1])
    def test_bad_mode_count_rejected(self, n):
        with pytest.raises(ConfigError):
            ConverterParams(n_modes=n)

    def test_single_mode_clocked_rejected(self):
        with pytest.raises(ConfigError) as exc:
            ConverterParams(n_modes=1, strategy="clocked")
        assert exc.value.violations == ["n_modes: clocked routing needs n_modes >= 2 (got 1)"]
        ConverterParams(n_modes=1, strategy="heralded")  # the other strategies take one mode
        ConverterParams(n_modes=1, strategy="passive")


class TestSimulationConfig:
    """A converter may not ask for longer herald runs than the arm can produce."""

    def test_two_detectors_at_deadtime_two_refuse_three_modes(self):
        with pytest.raises(ConfigError) as exc:
            SimulationConfig(make_source(herald_deadtime_slots=2), ConverterParams(n_modes=3))
        assert exc.value.violations == [
            "n_modes: no run of 3 consecutive heralds can occur: with a 2-slot deadtime the two"
            " alternating detectors herald at most 2 in a row; use a deadtime of 0 or 1 slots"]

    @pytest.mark.parametrize("ratio", [0.0, 1.0])
    def test_one_detector_refuses_two_modes(self, ratio):
        with pytest.raises(ConfigError) as exc:
            SimulationConfig(make_source(herald_deadtime_slots=1, herald_splitter_ratio=ratio),
                             ConverterParams(n_modes=2))
        assert exc.value.violations == [
            f"n_modes: no run of 2 consecutive heralds can occur: with a 1-slot deadtime and"
            f" herald_splitter_ratio {ratio} one detector takes every idler and never heralds"
            f" two slots in a row; use a deadtime of 0 slots"]

    @pytest.mark.parametrize("deadtime,ratio,n", [
        (4, 0.5, 2),  # the paper's point
        (1, 0.5, 5),  # a detector is live again two slots on
        (0, 0.5, 5),
        (0, 1.0, 5),
        (4, 1.0, 1),
        (4, 0.999, 2),
    ])
    def test_reachable_run_lengths_accepted(self, deadtime, ratio, n):
        SimulationConfig(make_source(herald_deadtime_slots=deadtime, herald_splitter_ratio=ratio),
                         ConverterParams(n_modes=n))


class TestRoutingStrategy:
    @pytest.mark.parametrize("name,member", [
        ("heralded", RoutingStrategy.ACTIVE_HERALDED),
        ("CLOCKED", RoutingStrategy.ACTIVE_CLOCKED),
        ("passive", RoutingStrategy.PASSIVE_BEAMSPLITTER),
    ])
    def test_parse(self, name, member):
        assert RoutingStrategy.parse(name) is member

    def test_parse_passes_members_through(self):
        assert RoutingStrategy.parse(RoutingStrategy.ACTIVE_HERALDED) is RoutingStrategy.ACTIVE_HERALDED


class TestEfficiencyEstimate:
    def test_negative_error_rejected(self):
        with pytest.raises(ConfigError):
            EfficiencyEstimate(0.5, -0.01)

    def test_nan_rejected(self):
        with pytest.raises(ConfigError):
            EfficiencyEstimate(math.nan, 0.0)
