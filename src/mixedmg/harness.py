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
files.  Each format's trials run as blocks of up to ``_TRIAL_BLOCK``
right-hand sides through one blocked cycle; every column of a block gives
bit for bit what its trial gives alone, so the block width never shows in
the output.
"""

from __future__ import annotations

import configparser
import csv
import io
import warnings
from dataclasses import dataclass, field, replace
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
from .hierarchy import GridLevel, build_multilevel
from .linops import energy_norm, mdot_plus, solve_spd
from .precision import PrecisionFormat, column_norms


#: Trials per blocked cycle call.  Wider blocks cut per-call overhead
#: further but hold more ``(n, _TRIAL_BLOCK)`` temporaries at once.
_TRIAL_BLOCK = 64


class ConfigError(ValueError):
    """The experiment configuration is malformed or inconsistent."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment sweep."""

    problem: str = "poisson1d"
    size: int = 31
    levels: int = 2
    smoother: str = "jacobi"
    omega: float = 2.0 / 3.0
    coarse: str = "exact"
    sigma: float = 0.0
    mu: int = 1
    nu: int = 1
    bits: tuple[int, ...] = (8, 12, 16, 23)
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
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.levels < 2:
            raise ConfigError("need at least 2 levels")
        if self.pi_target is None and not self.bits:
            raise ConfigError("need a nonempty bits list or a pi_target")
        if not 0.0 <= self.sigma < 1.0:
            raise ConfigError("sigma must be in [0, 1)")
        k = int(round(np.log2(self.size + 1)))
        if 2**k - 1 != self.size or k < self.levels:
            raise ConfigError(
                f"size {self.size} is not coarsenable to {self.levels} levels"
            )


_SCHEMA = {
    "problem": (("kind", str, "problem"), ("size", int, "size"),
                ("levels", int, "levels")),
    "smoother": (("kind", str, "smoother"), ("omega", float, "omega")),
    "coarse": (("kind", str, "coarse"), ("sigma", float, "sigma"),
               ("mu", int, "mu"), ("nu", int, "nu")),
    "precision": (("bits", "bits_list", "bits"),
                  ("pi_target", float, "pi_target")),
    "run": (("trials", int, "trials"), ("seed", int, "rng_seed"),
            ("out", str, "output_path")),
}


def _check_names(parser: configparser.ConfigParser, path):
    """Reject every section and key that the schema does not know."""
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}] in {path}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")
        known = {key for key, _, _ in _SCHEMA[section]}
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in [{section}] of {path}")


def load_config(path) -> ExperimentConfig:
    """Read an INI experiment file (sections: problem, smoother, coarse,
    precision, run); unset keys keep their defaults.

    An unknown section or key, or both ``bits`` and ``pi_target`` under
    ``[precision]``, raises :class:`ConfigError`.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    _check_names(parser, path)
    kwargs = {}
    try:
        for section, entries in _SCHEMA.items():
            if not parser.has_section(section):
                continue
            for key, conv, attr in entries:
                if not parser.has_option(section, key):
                    continue
                raw = parser.get(section, key).strip()
                if conv == "bits_list":
                    kwargs[attr] = tuple(
                        int(tok) for tok in raw.replace(",", " ").split()
                    )
                elif conv is int:
                    kwargs[attr] = int(raw)
                elif conv is float:
                    kwargs[attr] = float(raw)
                else:
                    kwargs[attr] = raw
    except ValueError as exc:
        raise ConfigError(f"bad value in {path}: {exc}") from exc
    if "bits" in kwargs and "pi_target" in kwargs:
        raise ConfigError(
            f"set either bits or pi_target under [precision] of {path}, not both")
    return ExperimentConfig(**kwargs)


@dataclass(frozen=True)
class TrialRecord:
    """One trial's measurements next to the bound report that judges them."""

    report: BoundReport
    problem: str
    levels: int
    smoother: str
    omega: float
    coarse: str
    sigma: float
    mu: int
    nu: int
    rng_seed: int
    trial: int
    ref_error: float
    fp_error: float
    measured_ratio: float
    line_ratios: dict[str, float] = field(repr=False)
    passed: bool = True


TRIAL_COLUMNS = (
    "problem", "levels", "smoother", "omega", "coarse", "sigma", "mu", "nu",
    "rng_seed", "trial", "ref_error", "fp_error", "measured_ratio",
) + tuple(f"ratio_{name}" for name in PROOF_LINES) + ("passed",)

CSV_COLUMNS = bounds_mod.REPORT_COLUMNS + TRIAL_COLUMNS

CSV_HEADER_COMMENT = "# mixedmg trial records, columns v1"


def make_smoother(kind: str, A, omega: float, fmt: PrecisionFormat) -> RelaxationOp:
    if kind == "jacobi":
        return make_jacobi(A, omega, fmt)
    if kind == "richardson":
        return make_richardson(A, omega, fmt)
    raise ConfigError(f"unknown smoother {kind!r}")


def bound_inputs_for(level: GridLevel, M: RelaxationOp, N: RelaxationOp,
                     fmt: PrecisionFormat) -> BoundInputs:
    """Assemble the bounds-engine inputs from a level and its smoothers."""
    return BoundInputs(
        eps=fmt.unit_roundoff,
        kappa=level.kappa,
        kappa_c=level.kappa_c,
        eta_A=level.a_constants.eta_abs,
        eta_P=level.p_constants.eta_abs,
        eta_M=M.eta_euclid,
        eta_N=N.eta_energy,
        mdot_A=mdot_plus(level.a_constants.m, fmt),
        mdot_P=mdot_plus(level.p_constants.m, fmt),
        alpha_M=M.alpha,
        alpha_N=N.alpha,
    )


def build_problem(config: ExperimentConfig) -> list[GridLevel]:
    return build_multilevel(config.size, config.levels, problem=config.problem)


def _make_coarse(config: ExperimentConfig, levels) -> CoarseSolver:
    if config.coarse == "exact":
        return make_exact_coarse()
    if config.coarse == "perturbed":
        return make_perturbed_coarse(levels[0], config.sigma,
                                     seed=config.rng_seed)
    return make_recursive_coarse(levels, config.mu, config.nu)


def _resolve_bits(config: ExperimentConfig, level: GridLevel) -> tuple[int, ...]:
    if config.pi_target is not None:
        return (progressive_epsilon(level.kappa, config.pi_target).significand_bits,)
    return tuple(config.bits)


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    """Run the configured sweep; deterministic given the config."""
    levels = build_problem(config)
    level = levels[0]
    coarse = _make_coarse(config, levels)
    records: list[TrialRecord] = []
    for bits in _resolve_bits(config, level):
        fmt = PrecisionFormat(bits)
        # one operator serves as both pre- and post-relaxation
        M = N = make_smoother(config.smoother, level.A, config.omega, fmt)
        rho = rho_star(level, M, N, coarse)
        if rho >= 1.0:
            warnings.warn(
                f"exact-arithmetic contraction factor {rho:.4f} >= 1 at "
                f"bits={bits}; the error bound is vacuous for this "
                f"configuration", stacklevel=2)
        inputs = bound_inputs_for(level, M, N, fmt)
        report = compute_constants(
            inputs, rho_star=rho,
            n=level.n, n_c=level.n_c, significand_bits=bits,
        )
        coeffs = per_line_bounds(inputs)
        rng = np.random.default_rng([config.rng_seed, bits])
        for first in range(0, config.trials, _TRIAL_BLOCK):
            width = min(_TRIAL_BLOCK, config.trials - first)
            # one normalized right-hand side per trial, in draw order
            draws = rng.standard_normal((width, level.n))
            r = (draws / column_norms(draws.T)[:, None]).T
            x = solve_spd(level.A, r)
            x_norm = energy_norm(x, level.A)
            y, trace = tg_cycle(level, r, M, N, coarse, fmt)
            ref_error = energy_norm(trace.y_reference - x, level.A)
            fp_error = energy_norm(y - x, level.A)
            measured_ratio = fp_error / x_norm
            line_ratios = {
                name: (trace.line_norms[name] / (coeffs[name] * x_norm)).tolist()
                for name in PROOF_LINES
            }
            for t in range(width):
                ratios = {name: line_ratios[name][t] for name in PROOF_LINES}
                passed = measured_ratio[t] <= report.rho_tg and all(
                    v <= 1.0 for v in ratios.values()
                )
                records.append(TrialRecord(
                    report=report,
                    problem=config.problem,
                    levels=config.levels,
                    smoother=config.smoother,
                    omega=config.omega,
                    coarse=config.coarse,
                    sigma=config.sigma,
                    mu=config.mu,
                    nu=config.nu,
                    rng_seed=config.rng_seed,
                    trial=first + t,
                    ref_error=float(ref_error[t]),
                    fp_error=float(fp_error[t]),
                    measured_ratio=float(measured_ratio[t]),
                    line_ratios=ratios,
                    passed=bool(passed),
                ))
    return records


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def _trial_cells(rec: TrialRecord) -> list[str]:
    cells = [rec.problem, rec.levels, rec.smoother, rec.omega, rec.coarse,
             rec.sigma, rec.mu, rec.nu, rec.rng_seed, rec.trial,
             rec.ref_error, rec.fp_error, rec.measured_ratio]
    cells += [rec.line_ratios[name] for name in PROOF_LINES]
    cells += [rec.passed]
    return [_format_cell(c) for c in cells]


def render_csv(records: list[TrialRecord]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER_COMMENT + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    # the bound report is shared by all trials of a format: format it once
    report_cells: dict[int, list[str]] = {}
    for rec in records:
        key = id(rec.report)
        if key not in report_cells:
            report_cells[key] = [_format_cell(c) for c in rec.report.csv_fields()]
        writer.writerow(report_cells[key] + _trial_cells(rec))
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

    A file is valid when each stored flag matches its re-derivation and all
    flags are true.
    """
    problems: list[str] = []
    rows = read_csv_rows(path)
    if not rows:
        return False, ["no data rows"]
    for i, row in enumerate(rows):
        try:
            measured = float(row["measured_ratio"])
            rho_tg = float(row["rho_tg"])
            ratios = [float(row[f"ratio_{name}"]) for name in PROOF_LINES]
            stored = row["passed"].strip().lower() == "true"
        except (KeyError, ValueError) as exc:
            problems.append(f"row {i}: malformed ({exc})")
            continue
        derived = measured <= rho_tg and all(v <= 1.0 for v in ratios)
        if derived != stored:
            problems.append(f"row {i}: stored pass={stored} but derived {derived}")
        elif not derived:
            problems.append(f"row {i}: bound violated (ratio {measured} vs {rho_tg})")
    return not problems, problems


def progressive_study(sizes, pi_target: float, trials: int, *,
                      problem: str = "poisson1d", smoother: str = "jacobi",
                      omega: float = 2.0 / 3.0, seed: int = 0,
                      delta_cap: float = 1.0) -> dict:
    """Pick a format per size so ``sqrt(kappa) * u`` stays near the target.

    For each size the study runs the trials at the selected format, records
    the worst observed deviation beyond the exact contraction factor, and
    checks it against the predicted ``delta_rho``; it also checks that
    ``delta_rho`` itself stays below ``delta_cap`` across sizes.
    """
    per_size: dict[int, dict] = {}
    base = ExperimentConfig(problem=problem, size=int(sizes[0]), levels=2,
                            smoother=smoother, omega=omega, coarse="exact",
                            bits=(), pi_target=pi_target, trials=trials,
                            rng_seed=seed)
    for size in sizes:
        cfg = replace(base, size=int(size))
        records = run_experiment(cfg)
        report = records[0].report
        max_observed = max(r.measured_ratio - report.rho_star for r in records)
        per_size[int(size)] = {
            "significand_bits": report.significand_bits,
            "eps": report.inputs.eps,
            "pi_dot": report.pi_dot,
            "rho_star": report.rho_star,
            "delta_rho": report.delta_rho,
            "max_observed_delta": max_observed,
            "within_bound": bool(max_observed <= report.delta_rho),
            "below_cap": bool(report.delta_rho <= delta_cap),
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
