"""Experiment orchestration: configs, randomized trials, CSV reports, validation.

A trial draws a normalized random right-hand side, runs the exact-arithmetic
reference and the reduced-precision cycle with identical operators, and
records (a) the final relative energy errors, (b) the measured/bound ratio
for each of the sixteen instrumented proof lines, and (c) a hard pass flag:
the final error must not exceed the predicted contraction ``rho_tg`` and
every per-line ratio must be at most one.  A single violation falsifies the
implementation, not the statistics, so the flags are asserted strictly.

Runs are deterministic: the per-format random stream is seeded from
``(rng_seed, significand_bits)``, and CSV serialization uses shortest
round-trip float formatting, so identical configs produce byte-identical
files.  A sweep's trials run as one format-major sequence, every trial of
the first format, then of the second, and so on, cut into blocks of
right-hand sides of at most ``_BLOCK_ENTRIES`` entries ``n * width`` whose
widths differ by at most one (the 800 trials of four formats at ``n =
255`` run as eight blocks of 73 and three of 72), each through one blocked
cycle whatever formats its columns hold: each column runs with its own
format's smoother, format, line coefficients and ``rho_tg``, and each
format's right-hand sides come from its own stream in trial order.  Every
column of a block gives bit for bit what its trial gives alone, so the
split never shows in the output.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import numbers
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .bounds import (
    BoundInputs,
    BoundReport,
    PROOF_LINES,
    compute_constants,
    per_line_bounds,
    progressive_epsilon,
)
from .cycles import (
    CoarseSolver,
    RelaxationOp,
    make_exact_coarse,
    make_jacobi,
    make_perturbed_coarse,
    make_recursive_coarse,
    make_richardson,
    rho_star,
    tg_cycle,
)
from .hierarchy import GridLevel, build_multilevel, check_refinable
from .linops import energy_norm, solve_spd
from .precision import CARRIER, PrecisionFormat, column_norms, mdot_plus_eps


#: The most entries ``n * width`` of one trial block, whatever formats its
#: columns hold: 78 columns at ``n = 255``, 20 at 2D ``k = 31`` and one at
#: 1D ``n = 16383`` and 2D ``k = 127``.  Wider blocks cut per-call overhead,
#: but a cycle holds about ten ``(n, width)`` blocks at once, which should
#: stay in a 2 MB cache; balanced widths leave no narrow tail block that pays
#: the overhead for few trials.
_BLOCK_ENTRIES = 20_000


class ConfigError(ValueError):
    """The experiment configuration is malformed or inconsistent."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment sweep.

    ``bits`` lists the formats the sweep runs; ``pi_target`` instead picks
    the one format :func:`mixedmg.bounds.progressive_epsilon` gives at the
    fine level's ``kappa``, and leaves ``bits`` empty.  Left unset, ``bits``
    is ``(8, 12, 16, 23)`` without a ``pi_target`` and empty with one.
    """

    problem: str = "poisson1d"
    size: int = 31
    levels: int = 2
    smoother: str = "jacobi"
    omega: float = 2.0 / 3.0
    coarse: str = "exact"
    sigma: float = 0.0
    mu: int = 1
    nu: int = 1
    bits: tuple[int, ...] | None = None
    pi_target: float | None = None
    trials: int = 100
    rng_seed: int = 0
    output_path: str | None = None

    def __post_init__(self):
        if self.problem not in ("poisson1d", "poisson2d"):
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.smoother not in ("jacobi", "richardson"):
            raise ConfigError(f"unknown smoother {self.smoother!r}")
        if self.coarse not in ("exact", "perturbed", "recursive"):
            raise ConfigError(f"unknown coarse solver {self.coarse!r}")
        for name in ("size", "levels", "mu", "nu", "trials", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("omega", "sigma", "pi_target"):
            value = getattr(self, name)
            if value is None and name == "pi_target":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            # stored as float, so that 1 and 1.0 give the same CSV cell
            object.__setattr__(self, name, float(value))
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ConfigError(f"omega must be finite and > 0, got {self.omega}")
        if self.rng_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.rng_seed}")
        if self.bits is None:
            object.__setattr__(self, "bits", () if self.pi_target is not None
                               else (8, 12, 16, 23))
        try:
            # stored as a tuple of ints, so that the frozen config hashes
            formats = [PrecisionFormat(bits) for bits in self.bits]
        except TypeError:
            raise ConfigError(f"bits must be a sequence of integers, "
                              f"got {self.bits!r}") from None
        except ValueError as exc:
            raise ConfigError(f"bits: {exc}") from None
        object.__setattr__(self, "bits", tuple(f.significand_bits for f in formats))
        repeated = [bits for i, bits in enumerate(self.bits) if bits in self.bits[:i]]
        if repeated:
            # each format's trials come from one stream seeded by its width
            raise ConfigError(f"bits: format {repeated[0]} is listed more than once")
        if self.pi_target is None and not self.bits:
            raise ConfigError("need a nonempty bits list or a pi_target")
        if self.pi_target is not None and self.bits:
            # a pi_target runs only its own format, so listed bits would not run
            raise ConfigError("set either bits or pi_target, not both")
        if self.pi_target is not None and not 0.0 < self.pi_target < 1.0:
            raise ConfigError(f"pi_target must be in (0, 1), got {self.pi_target}")
        if not 0.0 <= self.sigma < 1.0:
            raise ConfigError("sigma must be in [0, 1)")
        if self.mu < 0 or self.nu < 0 or self.mu + self.nu < 1:
            raise ConfigError(f"mu and nu must be >= 0 with mu + nu >= 1, "
                              f"got mu = {self.mu}, nu = {self.nu}")
        # a key the chosen coarse solver never reads would be echoed into
        # every CSV row as if it had run
        if self.sigma != 0.0 and self.coarse != "perturbed":
            raise ConfigError(f"sigma applies only to coarse = perturbed, "
                              f"not {self.coarse}")
        if (self.mu, self.nu) != (1, 1) and self.coarse != "recursive":
            raise ConfigError(f"mu and nu apply only to coarse = recursive, "
                              f"not {self.coarse}")
        if self.coarse == "recursive" and self.levels < 3:
            raise ConfigError(f"coarse = recursive needs levels >= 3 for a cycle "
                              f"below the coarse grid, got levels = {self.levels}")
        if self.coarse != "recursive" and self.levels != 2:
            raise ConfigError(f"levels = {self.levels} applies only to coarse = "
                              f"recursive; coarse = {self.coarse} reads two grids")
        try:
            check_refinable(self.size, self.levels)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _bits_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


#: Every key of an INI experiment file: (section, key) -> (field, conversion).
_ENTRIES = {
    ("problem", "kind"): ("problem", str), ("problem", "size"): ("size", int),
    ("problem", "levels"): ("levels", int),
    ("smoother", "kind"): ("smoother", str), ("smoother", "omega"): ("omega", float),
    ("coarse", "kind"): ("coarse", str), ("coarse", "sigma"): ("sigma", float),
    ("coarse", "mu"): ("mu", int), ("coarse", "nu"): ("nu", int),
    ("precision", "bits"): ("bits", _bits_list),
    ("precision", "pi_target"): ("pi_target", float),
    ("run", "trials"): ("trials", int), ("run", "seed"): ("rng_seed", int),
    ("run", "out"): ("output_path", str),
}


def load_config(path) -> ExperimentConfig:
    """Read an INI experiment file (sections: problem, smoother, coarse,
    precision, run); unset keys keep their defaults.

    An unknown section or key, or both ``bits`` and ``pi_target`` under
    ``[precision]``, raises :class:`ConfigError`, as does every value the
    config refuses.
    """
    parser = configparser.ConfigParser(interpolation=None)  # values read literally
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}] in {path}")
    kwargs = {}
    for section in parser.sections():
        if section not in {known for known, _ in _ENTRIES}:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key in parser.options(section):
            if (section, key) not in _ENTRIES:
                raise ConfigError(f"unknown key {key!r} in [{section}] of {path}")
            attr, conv = _ENTRIES[section, key]
            try:
                kwargs[attr] = conv(parser.get(section, key).strip())
            except ValueError as exc:
                raise ConfigError(f"bad value in {path}: {exc}") from exc
    return ExperimentConfig(**kwargs)


@dataclass(frozen=True)
class TrialRecord:
    """One trial's measurements next to the config and bound report behind them."""

    report: BoundReport
    config: ExperimentConfig
    trial: int
    ref_error: float
    fp_error: float
    measured_ratio: float
    line_ratios: dict[str, float] = field(repr=False)
    passed: bool


def trial_passed(measured_ratio, rho_tg: float, line_ratios):
    """The pass rule: the final ratio is within ``rho_tg`` and every
    per-line ratio is at most one.

    A ``bool`` for one trial.  For a block of trials, ``measured_ratio`` is
    ``(T,)`` and ``line_ratios`` ``(lines, T)``, and the result is one flag
    per trial.
    """
    passed = np.less_equal(measured_ratio, rho_tg) & np.all(
        np.less_equal(list(line_ratios), 1.0), axis=0)
    return bool(passed) if passed.ndim == 0 else passed


# the ExperimentConfig fields each trial row repeats
_CONFIG_COLUMNS = (
    "problem", "levels", "smoother", "omega", "coarse", "sigma", "mu", "nu",
    "rng_seed",
)

TRIAL_COLUMNS = _CONFIG_COLUMNS + (
    "trial", "ref_error", "fp_error", "measured_ratio",
) + tuple(f"ratio_{name}" for name in PROOF_LINES) + ("passed",)

CSV_COLUMNS = bounds_mod.REPORT_COLUMNS + TRIAL_COLUMNS

CSV_HEADER_COMMENT = "# mixedmg trial records, columns v1"


def make_smoother(kind: str, A, omega: float, fmt: PrecisionFormat) -> RelaxationOp:
    if kind == "jacobi":
        return make_jacobi(A, omega, fmt)
    if kind == "richardson":
        return make_richardson(A, omega, fmt)
    raise ConfigError(f"unknown smoother {kind!r}")


def bound_inputs_for(level: GridLevel, S: RelaxationOp) -> BoundInputs:
    """Assemble the bounds-engine inputs from a level and its smoother, which
    is both the pre-relaxation ``M`` and the post-relaxation ``N`` of the
    bound and whose format gives ``eps``."""
    return BoundInputs(
        eps=S.fmt.unit_roundoff,
        kappa=level.kappa,
        kappa_c=level.kappa_c,
        eta_A=level.eta_A,
        eta_P=level.eta_P,
        eta_M=S.eta,
        eta_N=S.eta,
        m_A=level.A.row_layout.m,
        m_P=level.P_layout.m,
        alpha_M=S.alpha,
        alpha_N=S.alpha,
    )


def _check_formats(level: GridLevel, formats) -> None:
    """Raise :class:`mixedmg.precision.PrecisionTooLowError` unless every
    format models every row kernel of the cycle: ``(m + 1) u < 1`` for the
    most stored nonzeros ``m`` in a row of ``A``, ``P`` and ``P'``.

    :class:`mixedmg.bounds.BoundInputs` reads only ``A`` and ``P``, but the
    restriction runs on the rows of ``P'``, which hold 9 entries in 2D.
    """
    m = max(level.A.row_layout.m, level.P_layout.m, level.P_t_layout.m)
    # every format passes when the one of the largest u does
    mdot_plus_eps(m, max(fmt.unit_roundoff for fmt in formats))


def _make_coarse(config: ExperimentConfig, levels) -> CoarseSolver:
    if config.coarse == "exact":
        return make_exact_coarse(levels[0])
    if config.coarse == "perturbed":
        return make_perturbed_coarse(levels[0], config.sigma,
                                     seed=config.rng_seed)
    # the cycle below the coarse grid relaxes with the configured smoother
    smoothers = [make_smoother(config.smoother, l.A, config.omega, CARRIER)
                 for l in levels[1:]]
    return make_recursive_coarse(levels, config.mu, config.nu, smoothers)


def _resolve_bits(config: ExperimentConfig, level: GridLevel) -> tuple[int, ...]:
    if config.pi_target is not None:
        return (progressive_epsilon(level.kappa, config.pi_target).significand_bits,)
    return config.bits


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    """Run the configured sweep; deterministic given the config."""
    levels = build_multilevel(config.size, config.levels, problem=config.problem)
    level = levels[0]
    formats = [PrecisionFormat(bits) for bits in _resolve_bits(config, level)]
    _check_formats(level, formats)  # before any set-up that a trial would waste
    coarse = _make_coarse(config, levels)
    smoothers = [make_smoother(config.smoother, level.A, config.omega, fmt)
                 for fmt in formats]
    reports, coeffs = [], []
    # every format's rho_star from one pass over the Fourier blocks
    for fmt, S, rho in zip(formats, smoothers, rho_star(smoothers, coarse)):
        bits = fmt.significand_bits
        if rho >= 1.0:
            warnings.warn(
                f"exact-arithmetic contraction factor {rho:.4f} >= 1 at "
                f"bits={bits}; the error bound is vacuous for this "
                f"configuration", stacklevel=2)
        inputs = bound_inputs_for(level, S)
        reports.append(compute_constants(
            inputs, rho_star=rho,
            n=level.n, n_c=level.n_c, significand_bits=bits,
        ))
        coeffs.append(per_line_bounds(inputs))
    # each format's line coefficients (a column) and rho_tg, picked per trial
    coeffs = np.array([[c[name] for c in coeffs] for name in PROOF_LINES])
    rho_tg = np.array([report.rho_tg for report in reports])
    rngs = [np.random.default_rng([config.rng_seed, fmt.significand_bits])
            for fmt in formats]
    # the sweep's trials, format-major, in ceil(total / most) blocks of at
    # most _BLOCK_ENTRIES entries; the first total % blocks hold one more
    total = len(formats) * config.trials
    blocks = -(-total // max(_BLOCK_ENTRIES // level.n, 1))
    records: list[TrialRecord] = []
    for block in np.array_split(np.arange(total), blocks):
        which, trials = np.divmod(block, config.trials)
        columns = which.tolist()  # each column's format, by index
        # one normalized right-hand side per trial, each format's drawn from
        # its own stream in trial order, as the C-ordered columns of r: each
        # kernel then gathers contiguous rows
        draws = np.concatenate([rngs[f].standard_normal((count, level.n)) for f, count in
                                zip(*np.unique(which, return_counts=True))])
        r = np.divide(draws.T, column_norms(draws.T), order="C")
        x = solve_spd(level.A, r)
        x_norm = energy_norm(x, level.A)
        y, trace = tg_cycle(r, [smoothers[f] for f in columns], coarse)
        ref_error = energy_norm(trace.y_reference - x, level.A)
        fp_error = energy_norm(y - x, level.A)
        # one row per trial cell: the two errors, the measured ratio and
        # the sixteen line ratios, each over the block's trials
        lines = np.array([trace.line_norms[name] for name in PROOF_LINES])
        cells = np.array([ref_error, fp_error, fp_error / x_norm,
                          *(lines / (coeffs[:, which] * x_norm))])
        passed = trial_passed(cells[2], rho_tg[which], cells[3:])
        for f, t, (ref, fp, measured, *ratios), ok in zip(
                columns, trials.tolist(), cells.T.tolist(), passed.tolist()):
            records.append(TrialRecord(
                report=reports[f], config=config, trial=t, ref_error=ref,
                fp_error=fp, measured_ratio=measured,
                line_ratios=dict(zip(PROOF_LINES, ratios)), passed=ok))
    return records


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def _trial_cells(rec: TrialRecord) -> str:
    # float.__repr__ gives a numpy float64 the cell of its float value
    floats = (rec.ref_error, rec.fp_error, rec.measured_ratio,
              *map(rec.line_ratios.__getitem__, PROOF_LINES))
    return ",".join([str(rec.trial), *map(float.__repr__, floats),
                     "true" if rec.passed else "false"])


def render_csv(records: list[TrialRecord]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER_COMMENT + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    # the bound report is shared by all trials of a format and the config by
    # all trials of a sweep: render that prefix once, through the csv writer
    # for its quoting; the trial cells are numbers and flags, which need none
    prefixes: dict[tuple[int, int], str] = {}
    for rec in records:
        key = (id(rec.report), id(rec.config))
        if key not in prefixes:
            line = io.StringIO()
            csv.writer(line, lineterminator="\n").writerow(
                [_format_cell(c) for c in rec.report.csv_fields()]
                + [_format_cell(getattr(rec.config, name)) for name in _CONFIG_COLUMNS])
            prefixes[key] = line.getvalue()[:-1] + ","
        buf.write(prefixes[key] + _trial_cells(rec) + "\n")
    return buf.getvalue()


def write_csv(records: list[TrialRecord], path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_csv(records))
    return path


def read_csv_rows(path) -> list[dict[str, str]]:
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader)


def validate_csv(path) -> tuple[bool, list[str]]:
    """Re-derive every pass flag from the stored norms and ratios.

    A file is valid when it opens with :data:`CSV_HEADER_COMMENT` and the
    header row of :data:`CSV_COLUMNS`, every row has one cell per column,
    each stored flag matches its re-derivation and all flags are true.
    """
    lines = Path(path).read_text().splitlines()
    if lines[:2] != [CSV_HEADER_COMMENT, ",".join(CSV_COLUMNS)]:
        return False, [f"file: does not open with {CSV_HEADER_COMMENT!r} and the "
                       f"header row of its {len(CSV_COLUMNS)} columns"]
    if not any(lines[2:]):
        return False, ["no data rows"]
    problems: list[str] = []
    # one row at a time: blank lines are not rows
    for i, cells in enumerate(cells for cells in csv.reader(lines[2:]) if cells):
        if len(cells) != len(CSV_COLUMNS):
            problems.append(f"row {i}: malformed ({len(cells)} cells, "
                            f"not {len(CSV_COLUMNS)})")
            continue
        row = dict(zip(CSV_COLUMNS, cells))
        try:
            measured = float(row["measured_ratio"])
            rho_tg = float(row["rho_tg"])
            ratios = [float(row[f"ratio_{name}"]) for name in PROOF_LINES]
        except ValueError as exc:
            problems.append(f"row {i}: malformed ({exc})")
            continue
        stored = row["passed"].strip().lower() == "true"
        derived = trial_passed(measured, rho_tg, ratios)
        if derived != stored:
            problems.append(f"row {i}: stored pass={stored} but derived {derived}")
        elif not derived:
            problems.append(f"row {i}: bound violated (ratio {measured} vs {rho_tg})")
    return not problems, problems


def progressive_study(sizes, pi_target: float, trials: int, *,
                      problem: str = ExperimentConfig.problem,
                      seed: int = ExperimentConfig.rng_seed) -> dict:
    """Pick a format per size so ``sqrt(kappa) * u`` stays near the target.

    For each size the study runs the trials at the selected format and
    records the worst observed deviation beyond the exact contraction
    factor; a size is within its bound when every trial passes
    (:func:`trial_passed`, the total and all sixteen proof lines).  It also
    checks that ``delta_rho`` itself stays at most 1 across sizes.  An empty
    or repeated list of sizes raises :class:`ConfigError`, and each size is
    checked by :class:`ExperimentConfig` as given.
    """
    sizes = list(sizes)
    if not sizes or len(set(sizes)) != len(sizes):
        raise ConfigError(f"sizes must be one or more distinct sizes, got {sizes}")
    per_size: dict[int, dict] = {}
    for size in sizes:
        cfg = ExperimentConfig(problem=problem, size=size, levels=2, coarse="exact",
                               pi_target=pi_target, trials=trials, rng_seed=seed)
        records = run_experiment(cfg)
        report = records[0].report
        max_observed = max(r.measured_ratio - report.rho_star for r in records)
        per_size[int(cfg.size)] = {
            "significand_bits": report.significand_bits,
            "eps": report.inputs.eps,
            "pi_dot": report.pi_dot,
            "rho_star": report.rho_star,
            "delta_rho": report.delta_rho,
            "max_observed_delta": max_observed,
            "within_bound": all(r.passed for r in records),
            "below_cap": bool(report.delta_rho <= 1.0),
        }
    deltas = [v["delta_rho"] for v in per_size.values()]
    return {
        "pi_target": pi_target,
        "trials": trials,
        "per_size": per_size,
        "delta_rho_spread": max(deltas) / min(deltas),
        "all_ok": all(v["within_bound"] and v["below_cap"]
                      for v in per_size.values()),
    }
