"""Compare two trial CSVs of ``mixedmg``: rows, pass flags and worst relative gaps.

Usage, from the root of a checkout::

    python tests/csv_compare.py OLD.csv NEW.csv [--columns]
    python tests/csv_compare.py OLD_DIR NEW_DIR [--columns]

Two directories compare every ``*.csv`` file name they share.  Rows are
paired by position, as a rerun of one config writes them.  The output is one
markdown table row per file pair: the row counts, whether every ``passed``
flag is the same, whether the bytes are identical, the worst relative gap
over the report constants (``mixedmg.bounds.REPORT_COLUMNS``) and the worst
over the ratio and error columns, each with its column.  ``--columns`` adds
one table of the worst gap per column.  The relative gap of two values is
``|new - old| / max(|old|, |new|)``, zero when both are zero.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass
from pathlib import Path

from mixedmg.bounds import REPORT_COLUMNS

#: The per-trial measured columns besides the pass flag.
ERROR_COLUMNS = ("ref_error", "fp_error", "measured_ratio")


@dataclass(frozen=True)
class Comparison:
    """How a new CSV differs from an old one of the same config."""

    rows: tuple[int, int]
    same_flags: bool
    identical: bool
    gaps: dict[str, float]  # worst relative gap per compared column

    def worst(self, columns) -> tuple[float, str]:
        """The largest gap over ``columns`` and its column (first on ties)."""
        return max(((self.gaps[c], c) for c in columns if c in self.gaps),
                   key=lambda pair: pair[0], default=(0.0, "-"))


def _table(text: str) -> list[dict[str, str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def relative_gap(old: float, new: float) -> float:
    scale = max(abs(old), abs(new))
    return 0.0 if scale == 0.0 else abs(new - old) / scale


def compared_columns(header) -> list[str]:
    """The report constants, then the ratio and error columns, of ``header``."""
    measured = [c for c in header if c in ERROR_COLUMNS or c.startswith("ratio_")]
    return [c for c in REPORT_COLUMNS if c in header] + measured


def compare(old_text: str, new_text: str) -> Comparison:
    """Compare two CSV texts row by row."""
    old, new = _table(old_text), _table(new_text)
    header = list(old[0]) if old else []
    columns = compared_columns(header)
    gaps = dict.fromkeys(columns, 0.0)
    for a, b in zip(old, new):
        for c in columns:
            gaps[c] = max(gaps[c], relative_gap(float(a[c]), float(b[c])))
    same_flags = len(old) == len(new) and all(
        a["passed"] == b["passed"] for a, b in zip(old, new))
    return Comparison((len(old), len(new)), same_flags, old_text == new_text, gaps)


def summary_row(name: str, cmp: Comparison) -> str:
    report = cmp.worst(REPORT_COLUMNS)
    measured = cmp.worst(c for c in cmp.gaps if c not in REPORT_COLUMNS)
    return (f"| {name} | {cmp.rows[0]} / {cmp.rows[1]} | "
            f"{'same' if cmp.same_flags else 'DIFFERENT'} | {cmp.identical} | "
            f"{report[0]:.2g} ({report[1]}) | {measured[0]:.2g} ({measured[1]}) |")


SUMMARY_HEADER = (
    "| csv | rows | passed flags | identical bytes | worst report constant (column) "
    "| worst ratio/error column (column) |\n|---|---|---|---|---|---|")


def _pairs(old: Path, new: Path):
    if old.is_dir() and new.is_dir():
        for path in sorted(old.glob("*.csv")):
            if (new / path.name).exists():
                yield path.stem, path, new / path.name
    else:
        yield old.stem, old, new


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--columns", action="store_true",
                        help="also print the worst gap of every compared column")
    args = parser.parse_args(argv)
    results = [(name, compare(a.read_text(), b.read_text()))
               for name, a, b in _pairs(args.old, args.new)]
    if not results:
        print("no CSV file pairs to compare", file=sys.stderr)
        return 2
    print(SUMMARY_HEADER)
    for name, cmp in results:
        print(summary_row(name, cmp))
    if args.columns:
        names = [name for name, _ in results]
        print("\n| column | " + " | ".join(names) + " |")
        print("|---|" + "---|" * len(names))
        for column in results[0][1].gaps:
            cells = " | ".join(f"{cmp.gaps.get(column, 0.0):.2g}" for _, cmp in results)
            print(f"| {column} | {cells} |")
    return 0 if all(cmp.same_flags and cmp.rows[0] == cmp.rows[1]
                    for _, cmp in results) else 1


if __name__ == "__main__":
    sys.exit(main())
