"""Validation behavior of the shared domain types."""

import math

import pytest

from photondemux.model import (
    ConfigError,
    ConverterParams,
    EfficiencyEstimate,
    EstimatorMethod,
    RoutingStrategy,
    SimulationReport,
    SourceParams,
    deadtime_to_slots,
    validate_config,
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
        assert not p.multi_pair_enabled

    def test_slot_duration(self):
        assert make_source(rep_rate_hz=82e6).slot_duration_s == pytest.approx(12.195e-9, rel=1e-3)

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

    def test_router_count_is_modes_minus_one(self):
        assert ConverterParams(n_modes=4).n_routers == 3
        assert ConverterParams(n_modes=1).n_routers == 0

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
    def test_closed_form_must_be_exact(self):
        EfficiencyEstimate(0.5, 0.0, EstimatorMethod.CLOSED_FORM)
        with pytest.raises(ConfigError):
            EfficiencyEstimate(0.5, 0.01, EstimatorMethod.CLOSED_FORM)

    def test_negative_error_rejected(self):
        with pytest.raises(ConfigError):
            EfficiencyEstimate(0.5, -0.01, EstimatorMethod.MONTE_CARLO)

    def test_nan_rejected(self):
        with pytest.raises(ConfigError):
            EfficiencyEstimate(math.nan, 0.0, EstimatorMethod.MONTE_CARLO)


class TestSimulationReport:
    def make(self, **overrides):
        base = dict(
            c_n_rate=2.6, c_h_rate=785.0, p_h1_eta_d=0.079,
            s_estimate=EfficiencyEstimate(0.533, 0.01, EstimatorMethod.COUNTING_PIPELINE),
            seed=42, config_digest="0" * 64, slots_simulated=10**9,
        )
        base.update(overrides)
        return SimulationReport(**base)

    def test_valid(self):
        assert self.make().c_h_rate == 785.0

    def test_coincidences_cannot_exceed_triggers(self):
        with pytest.raises(ConfigError):
            self.make(c_n_rate=800.0)

    def test_needs_slots(self):
        with pytest.raises(ConfigError):
            self.make(slots_simulated=0)


class TestValidateConfig:
    def good_raw(self):
        return (
            {"pair_prob": 0.004, "rep_rate_hz": 82e6, "herald_deadtime_s": 40e-9},
            {"n_modes": 2, "strategy": "heralded", "transmittance": 0.731,
             "port_efficiencies": [0.998, 0.998]},
        )

    def test_accepts_mappings_and_converts_deadtime(self):
        src_raw, conv_raw = self.good_raw()
        cfg = validate_config(src_raw, conv_raw)
        assert cfg.source.herald_deadtime_slots == 4
        assert cfg.converter.strategy is RoutingStrategy.ACTIVE_HERALDED
        assert cfg.converter.n_modes == 2

    def test_accepts_built_params(self):
        cfg = validate_config(make_source(), ConverterParams(n_modes=2))
        assert cfg.converter.n_modes == 2

    def test_collects_all_violations(self):
        bad_src = {"pair_prob": 7.0, "rep_rate_hz": -1.0, "telescope": True}
        # a bad strategy stops the field checks, so the unknown key keeps
        # the converter section contributing two violations
        bad_conv = {"n_modes": 0, "strategy": "psychic", "crystal": 1}
        with pytest.raises(ConfigError) as exc:
            validate_config(bad_src, bad_conv)
        messages = "\n".join(exc.value.violations)
        assert len(exc.value.violations) >= 5
        assert "source.pair_prob" in messages
        assert "source.rep_rate_hz" in messages
        assert "source.telescope" in messages
        assert "converter.n_modes" in messages
        assert "strategy" in messages

    def test_deadtime_given_both_ways_is_a_violation(self):
        src_raw, conv_raw = self.good_raw()
        src_raw["herald_deadtime_slots"] = 4
        with pytest.raises(ConfigError) as exc:
            validate_config(src_raw, conv_raw)
        assert any("not both" in v for v in exc.value.violations)
