"""Tests for grid enumeration, complexity points, scores, Pareto
frontiers, and the reconstruction-error experiment."""

import hashlib
import math
import sys
import threading
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxsim import sweep
from mxsim.formats import ROUNDING_MODES, get_format
from mxsim.hadamard import HADAMARD_MODES
from mxsim.mx import BlockSpec, dequantize_tensor, quantize_tensor
from mxsim.qgrad import SCALE_GRAD_MODES, TENSOR_GRAD_MODES
from mxsim.qlinear import SR_POLICIES
from mxsim.sweep import (
    COMPLEXITY_WEIGHTS,
    _median_in_place,
    OPTION_ALIASES,
    SweepConfig,
    SweepGrid,
    best_val_loss,
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
    run_configs,
)
from mxsim.trainer import RunRecord, TrainConfig

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
        assert qcfg.hadamard.seed == 0
        assert build_qlinear_config(cfg, 3).hadamard.seed == 3  # the run seed

    @pytest.mark.parametrize("max_grad, beta", [
        ("STE", None), ("absmax", None), ("hardsoftmax", None), ("softsoftmax", 40.0)])
    def test_layer_statistic_is_smooth_only_under_softsoftmax(self, max_grad, beta):
        assert build_qlinear_config(SweepConfig(max_grad=max_grad)).spec.beta == beta

    @pytest.mark.parametrize("tensor_grad", ["absmax", "STE"])
    def test_tensor_grad_needs_tensor_scaling(self, tensor_grad):
        with pytest.raises(ValueError, match=f"tensor_grad '{tensor_grad}' needs"):
            SweepConfig(tensor_grad=tensor_grad)
        assert SweepConfig(tensor_grad="ignore").tensor_grad == "ignore"
        assert SweepConfig(tensor_scaling=True, tensor_grad=tensor_grad)
        assert SweepConfig(tensor_scaling=True, tensor_grad="ignore")

    def test_tensor_scaling_needs_a_tensor_grad(self):
        # It used to run as "ignore" and print N/A beside True in results.csv.
        with pytest.raises(ValueError, match="tensor_scaling needs a tensor_grad: ignore, "):
            SweepConfig(tensor_scaling=True)

    def test_grid_skips_tensor_scaling_without_a_tensor_grad(self):
        grid = SweepGrid(scale_formats=("E8M0",), max_grads=("STE",),
                         round_modes=("TiesToEven",), quant_grads=("STE",),
                         scale_grads=("STE",), tensor_grads=("N/A", "ignore"),
                         optimisers=("Adam",), loss_scalings=(False,),
                         tensor_scalings=(True, False), srs=("None",), hadamards=("None",))
        assert [(c.tensor_scaling, c.tensor_grad) for c in enumerate_configs(grid)] == [
            (False, "N/A"), (True, "ignore")]

    @pytest.mark.parametrize("kw, error, message", [
        ({"optimiser": "StableSPAM"}, ValueError, "only Adam ships"),
        ({"scale_format": "E5M3"}, KeyError, "unknown format 'E5M3'"),
        ({"block_size": 24, "hadamard": "all"}, ValueError, "power of two"),
    ])
    def test_run_configs_refuses_what_cannot_run(self, kw, error, message):
        with pytest.raises(error, match=message):
            run_configs(TrainConfig(), SweepConfig(**kw))


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
        x = np.random.default_rng(1).standard_normal(1 << 14)
        m8, _ = recon_error_cell(x, "E8M0", 8, None)
        m128, _ = recon_error_cell(x, "E8M0", 128, None)
        # Larger blocks share one scale over more elements: error grows.
        assert m128 >= m8

    def test_extreme_scale_hurts_bounded_scale_format(self):
        x = np.random.default_rng(2).standard_normal(1 << 14) * 1e30
        e4m3, _ = recon_error_cell(x, "E4M3", 16, None)
        e8m0, _ = recon_error_cell(x, "E8M0", 16, None)
        # Bounded scale range saturates: essentially everything is lost.
        assert e4m3 > 0.9
        assert e8m0 < 0.5
        assert e4m3 > 3 * e8m0

    def test_grid_cells_match_the_oracle_in_grid_order(self, monkeypatch):
        # The grid alternates two pre-drawn work blocks; no cell may read
        # what an earlier one left, and the 7- and 14-cell grids end on
        # different blocks.  A short switch interval interleaves the worker
        # thread's draws with the cells as finely as the interpreter allows.
        monkeypatch.setattr(sweep, "RECON_TENSOR_SCALES", (1e-320, 1.0))
        monkeypatch.setattr(sweep, "RECON_BETAS", (40.0,))
        for formats in (("E8M0",), ("E8M0", "E4M3")):
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                rows = recon_error_experiment(formats=formats, block_sizes=(8,),
                                              seed=4, n_elements=1 << 12)
            finally:
                sys.setswitchinterval(interval)
            assert len(rows) == 7 * len(formats)
            rng = np.random.default_rng(4)
            for row in rows:
                beta = None if row["beta"] == "" else row["beta"]
                expected = _recon_cell_oracle(row["format"], row["l"], row["scale"],
                                              beta, rng, 1 << 12)
                assert (_bits(row["mean_rel_err"], row["median_rel_err"])
                        == _bits(*expected))

    @pytest.mark.parametrize("n_elements", [0, -1])
    def test_no_elements_rejected_before_any_draw(self, monkeypatch, n_elements):
        draws = []
        monkeypatch.setattr(sweep, "_draw", lambda *args: draws.append(args))
        with pytest.raises(ValueError, match="n_elements must be at least 1"):
            recon_error_experiment(n_elements=n_elements)
        assert draws == []

    def test_draw_without_a_nonzero_element_rejected(self):
        # The smallest subnormal times |x| < 0.5 rounds to 0.
        x = np.random.default_rng(0).standard_normal(1)
        assert abs(x[0]) < 0.5
        with pytest.raises(ValueError, match="none of the 1 elements of x is nonzero"):
            recon_error_cell(x * 5e-324, "E8M0", 8, None)

    @pytest.mark.parametrize("x", [np.zeros(0), np.zeros(5), np.full(3, -0.0)],
                             ids=["empty", "zeros", "negative-zeros"])
    def test_cell_without_a_nonzero_element_rejected(self, x):
        # An empty x has no zero element either, but no element to score.
        with pytest.raises(ValueError, match=f"none of the {x.size} elements"):
            recon_error_cell(x, "E8M0", 8, None)

    def test_late_cell_error_propagates_and_stops_the_worker(self, monkeypatch):
        # The second of 10 cells draws its one element at the smallest
        # subnormal scale, which rounds it to 0, while the worker draws the
        # third.
        monkeypatch.setattr(sweep, "RECON_TENSOR_SCALES", (5e-324,))
        threads = threading.active_count()
        with pytest.raises(ValueError, match="none of the 1 elements"):
            recon_error_experiment(formats=("E8M0",), block_sizes=(8,), seed=0,
                                   n_elements=1)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("grid, error", [
        ({"formats": ("E8M0", "bogus")}, KeyError),
        ({"block_sizes": (8, 0)}, ValueError),
    ])
    def test_bad_grid_rejected_before_any_cell(self, monkeypatch, grid, error):
        calls = []

        def counting(*args, _fn=sweep.recon_error_cell, **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(sweep, "recon_error_cell", counting)
        with pytest.raises(error):
            recon_error_experiment(n_elements=64, **grid)
        assert calls == []

    @pytest.mark.parametrize("work", [np.empty((3, 64)), np.empty((2, 64)),
                                      np.empty((2, 1025))])
    def test_pre_drawn_cell_needs_a_matching_work_block(self, work):
        # Refused, never cut to fit: the cell scored the first 64 elements
        # of a (3, 64) block when it still drew its own tensor.
        x = np.random.default_rng(0).standard_normal(1024)
        with pytest.raises(ValueError, match=r"work must have shape \(2, 1024\)"):
            recon_error_cell(x, "E8M0", 16, None, work)

    def test_grid_rows_and_csv(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep, "RECON_TENSOR_SCALES", (1.0, 1e8))
        monkeypatch.setattr(sweep, "RECON_BETAS", (40.0,))
        rows = recon_error_experiment(formats=("E8M0",), block_sizes=(16, 32),
                                      n_elements=1 << 10)
        assert all(
            set(r) == {"format", "l", "scale", "beta", "mean_rel_err", "median_rel_err"}
            for r in rows
        )
        path = tmp_path / "recon.csv"
        write_recon_csv(str(path), rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "format,l,scale,beta,mean_rel_err,median_rel_err"
        assert len(lines) == len(rows) + 1


def _recon_cell_oracle(scale_format, block_size, tensor_scale, beta, rng, n_elements):
    """A cell's statistics as masked copies and ``np.median`` give them."""
    x = rng.standard_normal(n_elements) * tensor_scale
    spec = BlockSpec(block_size=block_size, scale_format=get_format(scale_format),
                     beta=beta)
    deq = dequantize_tensor(quantize_tensor(x, spec))
    nonzero = x != 0
    rel = np.abs(x[nonzero] - deq[nonzero]) / np.abs(x[nonzero])
    return float(rel.mean()), float(np.median(rel))


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


class TestReconCellOracle:
    @pytest.mark.parametrize("n_elements, tensor_scale", [
        (1 << 16, 1.0), (1001, 1.0), (1 << 16, 1e-320)])
    @pytest.mark.parametrize("beta", [None, 40.0])
    @pytest.mark.parametrize("block_size", [8, 128])
    @pytest.mark.parametrize("scale_format", ["E8M0", "E4M3", "UE5M3"])
    def test_same_bits_as_masked_copies_and_np_median(
            self, scale_format, block_size, beta, n_elements, tensor_scale):
        x = np.random.default_rng(7).standard_normal(n_elements) * tensor_scale
        got = recon_error_cell(x, scale_format, block_size, beta)
        expected = _recon_cell_oracle(scale_format, block_size, tensor_scale, beta,
                                      np.random.default_rng(7), n_elements)
        assert _bits(*got) == _bits(*expected)

    def test_tiny_scale_draw_holds_exact_zeros(self):
        # So the case above runs the branch that leaves zeros out.
        x = np.random.default_rng(7).standard_normal(1 << 16) * 1e-320
        assert 0 < np.count_nonzero(x == 0) < x.size

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.0, 1e-300, 0.25, 0.5, 0.5, 1.0, 3.0,
                                     np.inf]), min_size=1, max_size=40)
           | st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40))
    def test_median_helper_equals_np_median(self, values):
        a = np.array(values, dtype=np.float64)
        assert _bits(_median_in_place(a.copy())) == _bits(np.median(a))


class TestResultsCsv:
    def test_row_and_csv_columns(self, tmp_path):
        cfg = SweepConfig(loss_scaling=True)
        record = RunRecord("demo", [0.9, 0.4], [0.8, 0.5], False, [], 2)
        row = result_row(record, cfg, m_ref=1.0)
        assert (row["Dataset"], row["Val loss"], row["Train loss"]) == ("demo", 0.5, 0.4)
        assert row["Complexity points"] == "0.500"
        assert row["Score"] == "0.500"
        # A reference that is not positive scores NaN; score() itself rejects it.
        assert [result_row(record, cfg, m)["Score"] for m in (0.0, math.nan)] == ["nan"] * 2
        path = tmp_path / "results.csv"
        write_results_csv(str(path), [row])
        header = path.read_text().splitlines()[0]
        assert header.startswith("Dataset,Val loss,Train loss,Scale")
        assert header.endswith("Complexity points,Score,NaN mode")

    @pytest.mark.parametrize("val_losses, best", [
        ([0.9, 0.5, 0.7], 0.5), ([math.nan, 0.5, 0.7], 0.5),
        ([0.7, math.inf, 0.6, math.nan], 0.6), ([math.nan, math.inf], math.nan),
    ])
    def test_best_val_loss_is_the_least_finite(self, val_losses, best):
        record = RunRecord("demo", val_losses, val_losses, False, [], 1)
        np.testing.assert_equal(best_val_loss(record), best)  # NaN equals NaN
