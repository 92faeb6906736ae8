"""Tests for grid enumeration, complexity points, scores, Pareto
frontiers, and the reconstruction-error experiment."""

import hashlib
import math
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxsim.formats import ROUNDING_MODES
from mxsim.hadamard import HADAMARD_MODES
from mxsim.qgrad import SCALE_GRAD_MODES, TENSOR_GRAD_MODES
from mxsim.qlinear import SR_POLICIES
from mxsim.sweep import (
    COMPLEXITY_WEIGHTS,
    OPTION_ALIASES,
    SweepConfig,
    SweepGrid,
    build_qlinear_config,
    canonical_option,
    complexity_points,
    enumerate_configs,
    pareto_front,
    recon_error_cell,
    recon_error_experiment,
    score,
    write_recon_csv,
    write_results_csv,
    result_row,
)

from reference_rows import (
    ALL_ROWS,
    KNOWN_COMPLEXITY_DEFECTS,
    baseline_minimum,
)


def config_from_row(row) -> SweepConfig:
    """The row's configuration, its published spellings (``IntelFP4_exact``,
    ``N/A``, ...) translated as the CLI translates config files."""
    values = {
        "scale_format": row.scale,
        "block_size": row.block_size,
        "max_grad": row.max_grad,
        "quant_grad": row.quant_grad,
        "hadamard": row.hadamard,
        "scale_grad": row.scale_grad,
        "sr": row.sr,
        "optimiser": row.optimiser,
        "loss_scaling": row.loss_scaling,
        "round_mode": row.round_mode,
        "tensor_scaling": row.tensor_scaling,
        "tensor_grad": row.tensor_grad,
        "nan_mode": row.nan_mode,
    }
    return SweepConfig(
        **{
            key: canonical_option(key, v) if isinstance(v, str) else v
            for key, v in values.items()
        }
    )


def loss_interval(printed: float) -> tuple[float, float]:
    """Interval of true losses that round to the printed 3-decimal value."""
    return printed - 0.0005, printed + 0.0005


def score_interval(m_ref: float, m_c: float, omega: float) -> tuple[float, float]:
    """Range of scores consistent with 3-decimal rounding of both losses."""
    refs = loss_interval(m_ref)
    cs = loss_interval(m_c)
    vals = [score(r, c, omega) for r in refs for c in cs if r > 0]
    return min(vals), max(vals)


class TestComplexityWeights:
    def test_all_weights_nonnegative(self):
        assert all(w >= 0 for w in COMPLEXITY_WEIGHTS.values())

    def test_default_config_is_free(self):
        assert complexity_points(SweepConfig()) == 0.0

    def test_each_technique_adds_its_weight(self):
        base = SweepConfig()
        singles = {
            "non_ste_max_grad": SweepConfig(max_grad="softsoftmax"),
            "tensor_scale_grad": SweepConfig(
                tensor_scaling=True, tensor_grad="absmax"
            ),
            "non_ste_quant_grad": SweepConfig(quant_grad="spline"),
            "hadamard": SweepConfig(hadamard="all"),
            "non_ste_scale_grad": SweepConfig(scale_grad="baseline"),
            "stochastic_rounding": SweepConfig(sr="backward"),
            "loss_scaling": SweepConfig(loss_scaling=True),
            "spam_optimizer": SweepConfig(optimiser="StableSPAM"),
            "stochastic_scale_rounding": SweepConfig(round_mode="Stochastic"),
        }
        assert complexity_points(base) == 0.0
        for name, cfg in singles.items():
            extra = complexity_points(cfg) - complexity_points(base)
            if name == "tensor_scale_grad":
                # Enabling the gradient also enables tensor scaling itself.
                assert extra == COMPLEXITY_WEIGHTS[name] + COMPLEXITY_WEIGHTS[
                    "tensor_scaling"
                ]
            else:
                assert extra == COMPLEXITY_WEIGHTS[name]

    def test_reference_rows_reproduced_exactly(self):
        checked = 0
        for row in ALL_ROWS:
            if row.is_baseline:
                continue
            key = (row.dataset, row.source, row.scale)
            got = complexity_points(config_from_row(row))
            if key in KNOWN_COMPLEXITY_DEFECTS:
                # Source-table erratum: the configuration sums to 6.0 but
                # the printed cell reads 7.5.
                assert got == pytest.approx(6.0, abs=5e-4)
                assert row.complexity_points == 7.5
                continue
            assert got == pytest.approx(row.complexity_points, abs=5e-4), key
            checked += 1
        assert checked >= 60


class TestScore:
    def test_zero_gain_is_zero(self):
        assert score(1.0, 1.0, 5.0) == 0.0

    def test_requires_positive_reference(self):
        with pytest.raises(ValueError):
            score(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            score(-1.0, 1.0, 0.0)

    def test_complexity_shrinks_positive_gain(self):
        assert score(1.0, 0.5, 4.0) == pytest.approx(0.5 / 4.0)
        assert score(1.0, 0.5, 0.5) == pytest.approx(0.5)

    def test_complexity_amplifies_negative_gain(self):
        assert score(1.0, 2.0, 4.0) == pytest.approx(-4.0)
        assert score(1.0, 2.0, 0.0) == pytest.approx(-1.0)

    def test_known_zero_complexity_examples(self):
        assert score(2.665, 3.099, 0.0) == pytest.approx(-0.163, abs=5e-4)
        assert score(2.258, 2.603, 0.0) == pytest.approx(-0.153, abs=5e-4)

    def test_reference_rows_reproduced(self):
        checked = 0
        for row in ALL_ROWS:
            if row.is_baseline:
                continue
            m_ref = baseline_minimum(ALL_ROWS, row.dataset)
            lo, hi = score_interval(m_ref, row.val_loss, row.complexity_points)
            assert lo - 0.002 <= row.score <= hi + 0.002, (
                row.dataset,
                row.source,
                row.scale,
            )
            checked += 1
        assert checked >= 60

    @given(
        m_ref=st.floats(0.01, 100.0),
        m_c=st.floats(0.0, 100.0),
        omega=st.floats(0.0, 10.0),
    )
    def test_more_complexity_never_improves(self, m_ref, m_c, omega):
        assert score(m_ref, m_c, omega + 1.0) <= score(m_ref, m_c, omega) + 1e-12


class TestEnumeration:
    def test_restricted_product(self):
        grid = SweepGrid(
            scale_formats=("E8M0", "E4M3"),
            max_grads=("STE",),
            round_modes=("TiesToEven", "TowardPositive", "Stochastic"),
            quant_grads=("STE",),
            scale_grads=("STE",),
            tensor_grads=("ignore",),
            optimisers=("Adam",),
            loss_scalings=(False,),
            tensor_scalings=(False,),
            srs=("None",),
            hadamards=("None",),
        )
        assert len(enumerate_configs(grid)) == 6

    def test_tensor_grad_forced_na_without_tensor_scaling(self):
        for cfg in enumerate_configs():
            if not cfg.tensor_scaling:
                assert cfg.tensor_grad == "N/A"
            else:
                assert cfg.tensor_grad in ("ignore", "absmax", "STE")

    def test_full_grid_cardinality_exceeds_twenty_thousand(self):
        grid = SweepGrid()
        assert grid.cardinality() > 20000
        assert len(enumerate_configs(grid)) < grid.cardinality()

    def test_no_duplicates(self):
        configs = enumerate_configs()
        assert len(set(configs)) == len(configs)


    def test_default_enumeration_is_pinned(self):
        # Digest of every default configuration, as tuples in enumeration
        # order, computed before the grid was derived from its fields.
        configs = [astuple(cfg) for cfg in enumerate_configs()]
        assert len(configs) == 31104
        digest = hashlib.sha256(repr(configs).encode()).hexdigest()
        assert digest == "00d931c3ebb917dbd9427cfcec0e840eb7e0b4266dbef72ab6fd33a65067dc17"

    def test_cardinality_is_the_raw_count(self):
        grid = SweepGrid(srs=("None", "all"), hadamards=("all",))
        # The default 46,656 with 2 of 3 SR values and 1 of 3 Hadamard modes.
        assert grid.cardinality() == 46656 // 9 * 2

    @pytest.mark.parametrize("axis", ["srs", "loss_scalings"])
    def test_empty_axis_rejected(self, axis):
        with pytest.raises(ValueError, match=f"axis '{axis}' has no values"):
            SweepGrid(**{axis: ()})

    def test_unknown_axis_value_rejected(self):
        with pytest.raises(ValueError, match="unknown sr 'bogus'"):
            enumerate_configs(SweepGrid(srs=("None", "bogus")))


def _checked_fields():
    return [(f.name, f.metadata["valid"]) for f in fields(SweepConfig) if f.metadata]


class TestOptionVocabulary:
    def test_layer_constants_are_the_vocabulary(self):
        valid, grid = dict(_checked_fields()), SweepGrid()
        assert valid["sr"] is grid.srs is SR_POLICIES == ("None", "backward", "all")
        assert valid["hadamard"] is grid.hadamards is HADAMARD_MODES == (
            "None", "all", "backward")
        assert valid["round_mode"] is grid.round_modes is ROUNDING_MODES
        assert valid["max_grad"] is grid.max_grads is SCALE_GRAD_MODES
        assert grid.tensor_grads is TENSOR_GRAD_MODES
        assert valid["tensor_grad"] == TENSOR_GRAD_MODES + ("N/A",)

    def test_every_alias_maps_to_a_canonical_value(self):
        valid = dict(_checked_fields())
        assert set(OPTION_ALIASES) <= set(valid)
        for key, aliases in OPTION_ALIASES.items():
            for alias, value in aliases.items():
                assert alias == alias.lower()
                assert value in valid[key], (key, alias)
                assert canonical_option(key, alias) == value
                assert canonical_option(key, alias.upper()) == value
                SweepConfig(**{key: canonical_option(key, alias)})

    def test_canonical_values_map_to_themselves(self):
        checked = _checked_fields()
        assert {name for name, _ in checked} == {
            "max_grad", "quant_grad", "scale_grad", "hadamard", "sr",
            "optimiser", "round_mode", "tensor_grad", "nan_mode",
        }
        for name, valid in checked:
            for value in valid:
                assert canonical_option(name, value) == value
                assert canonical_option(name, value.lower()) == value

    def test_old_layer_spellings_are_aliases(self):
        assert canonical_option("sr", "AllActivations") == "all"
        assert canonical_option("sr", "BackwardActivations") == "backward"
        assert canonical_option("hadamard", "All") == "all"
        assert canonical_option("hadamard", "BackwardOnly") == "backward"
        assert canonical_option("round_mode", "sr") == "Stochastic"

    def test_unknown_text_passes_through(self):
        assert canonical_option("sr", "bogus") == "bogus"
        assert canonical_option("scale_format", "E9M9") == "E9M9"

    @pytest.mark.parametrize("name", [name for name, _ in _checked_fields()])
    def test_config_rejects_non_canonical_values(self, name):
        with pytest.raises(ValueError, match=f"unknown {name} 'bogus'; valid: "):
            SweepConfig(**{name: "bogus"})

    def test_config_rejects_aliases(self):
        with pytest.raises(ValueError, match="valid: None, backward, all"):
            SweepConfig(sr="AllActivations")
        with pytest.raises(ValueError, match="valid: None, all, backward"):
            SweepConfig(hadamard="BackwardOnly")

    def test_scale_format_and_na_tensor_grad_accepted(self):
        # Published rows name E5M3, which this package does not ship.
        assert SweepConfig(scale_format="E5M3").scale_format == "E5M3"
        assert SweepConfig(tensor_grad="N/A").tensor_grad == "N/A"

    def test_layer_config_takes_the_values_as_they_are(self):
        cfg = SweepConfig(sr="backward", hadamard="all", round_mode="Stochastic")
        qcfg = build_qlinear_config(cfg)
        assert qcfg.sr_policy == "backward"
        assert qcfg.hadamard.mode == "all"
        assert qcfg.spec.scale_rounding == "Stochastic"


def _dominates(o, r):
    return o[0] <= r[0] and o[1] >= r[1] and (o[0] < r[0] or o[1] > r[1])


def _quadratic_front(points):
    """The dominance definition, checked pair by pair (test oracle)."""
    return [
        i for i, r in enumerate(points) if not any(_dominates(o, r) for o in points)
    ]


# Few distinct values, so ties, exact duplicates, signed zeros and NaNs are common.
_COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestParetoFront:
    def test_single_record_is_front(self):
        assert pareto_front([(0.0, 0.1)]) == [0]

    def test_strict_domination(self):
        assert pareto_front([(0.0, 0.1), (1.0, 0.05)]) == [0]

    def test_incomparable_records_both_kept(self):
        assert pareto_front([(0.0, 0.1), (1.0, 0.2)]) == [0, 1]

    def test_duplicates_and_nan_kept(self):
        points = [(2.0, 0.1), (1.0, 0.5), (math.nan, 9.0), (1.0, 0.5), (1.0, math.nan)]
        assert pareto_front(points) == [1, 2, 3, 4]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pareto_front([])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=30))
    def test_matches_quadratic_definition(self, points):
        assert pareto_front(points) == _quadratic_front(points)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 10), st.floats(-5, 5)), min_size=1, max_size=30
        )
    )
    def test_front_is_domination_free_and_maximal(self, points):
        front = pareto_front(points)
        assert front
        # Domination-free internally.
        for i in front:
            for j in front:
                if i != j:
                    assert not _dominates(points[j], points[i])
        # Maximal: every excluded record is dominated by a front member.
        for i, r in enumerate(points):
            if i not in front:
                assert any(_dominates(points[j], r) for j in front)


class TestReconError:
    def test_fixed_point_inputs_have_zero_error(self):
        rng = np.random.default_rng(0)
        # Powers of two scaled by representable 4-bit magnitudes round-trip
        # exactly under exact-max scaling with a power-of-two scale format.
        x = np.tile([1.0, 0.5, 2.0, 3.0, 4.0, 6.0, -1.5, -4.0], 8)
        from mxsim.formats import get_format
        from mxsim.mx import BlockSpec, dequantize_tensor, quantize_tensor

        spec = BlockSpec(block_size=32, scale_format=get_format("E8M0"))
        deq = dequantize_tensor(quantize_tensor(x, spec))
        assert np.array_equal(deq, x)

    def test_error_decreases_with_block_size_ordering(self):
        rng = np.random.default_rng(1)
        m8, _ = recon_error_cell("E8M0", 8, 1.0, None, rng, 1 << 14)
        rng = np.random.default_rng(1)
        m128, _ = recon_error_cell("E8M0", 128, 1.0, None, rng, 1 << 14)
        # Larger blocks share one scale over more elements: error grows.
        assert m128 >= m8

    def test_extreme_scale_hurts_bounded_scale_format(self):
        rng = np.random.default_rng(2)
        e4m3, _ = recon_error_cell("E4M3", 16, 1e30, None, rng, 1 << 14)
        rng = np.random.default_rng(2)
        e8m0, _ = recon_error_cell("E8M0", 16, 1e30, None, rng, 1 << 14)
        # Bounded scale range saturates: essentially everything is lost.
        assert e4m3 > 0.9
        assert e8m0 < 0.5
        assert e4m3 > 3 * e8m0

    def test_grid_rows_and_csv(self, tmp_path):
        rows = recon_error_experiment(
            formats=("E8M0",),
            block_sizes=(16, 32),
            tensor_scales=(1.0, 1e8),
            betas=(40.0,),
            n_elements=1 << 10,
        )
        assert all(
            set(r) == {"format", "l", "scale", "beta", "mean_rel_err", "median_rel_err"}
            for r in rows
        )
        path = tmp_path / "recon.csv"
        write_recon_csv(str(path), rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "format,l,scale,beta,mean_rel_err,median_rel_err"
        assert len(lines) == len(rows) + 1


class TestResultsCsv:
    def test_row_and_csv_columns(self, tmp_path):
        cfg = SweepConfig(loss_scaling=True)
        row = result_row("demo", cfg, val_loss=0.5, train_loss=0.4, m_ref=1.0)
        assert row["Complexity points"] == "0.500"
        assert row["Score"] == "0.500"
        path = tmp_path / "results.csv"
        write_results_csv(str(path), [row])
        header = path.read_text().splitlines()[0]
        assert header.startswith("Dataset,Val loss,Train loss,Scale")
        assert header.endswith("Complexity points,Score,NaN mode")
