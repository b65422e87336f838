"""Checks of moodlex output files against the generator's known answers.

Each check returns a list of problems; an empty list means the file passed.
"""

from __future__ import annotations

ROW_SUM_TOLERANCE = 1e-6
COVERAGE_TOLERANCE = 1e-8  # the report prints 9 significant digits


def _data_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if not line.startswith("#")]


def check_lexicon(path: str, answers: dict) -> list[str]:
    """Rows sum to 1, the word set and entry count match, and every planted
    word's row peaks on its planted emotion."""
    lines = _data_lines(path)
    if not lines or not lines[0].startswith("Lemma#PoS\t"):
        return [f"{path}: missing header"]
    emotions = lines[0].split("\t")[1:]
    problems = []
    rows: dict[str, list[float]] = {}
    for line in lines[1:]:
        fields = line.split("\t")
        try:
            vec = [float(v) for v in fields[1:]]
        except ValueError:
            vec = []
        if len(vec) != len(emotions):
            problems.append(f"{path}: malformed row {line[:60]!r}")
            continue
        if abs(sum(vec) - 1.0) > ROW_SUM_TOLERANCE:
            problems.append(f"{path}: row {fields[0]} sums to {sum(vec)!r}")
        rows[fields[0]] = vec
    if len(rows) != answers["entries"]:
        problems.append(f"{path}: {len(rows)} entries, expected {answers['entries']}")
    elif sorted(rows) != answers["words"]:
        problems.append(f"{path}: word set differs from the expected one")
    for word, emotion in answers["planted"].items():
        vec = rows.get(word)
        if vec is not None and emotions[vec.index(max(vec))] != emotion:
            problems.append(f"{path}: planted {word} peaks on {emotions[vec.index(max(vec))]}, not {emotion}")
    return problems


def check_dump(path: str, answers: dict) -> list[str]:
    """One data line per nonzero of the weighted matrix."""
    lines = len(_data_lines(path))
    if lines != answers["dump_nnz"]:
        return [f"{path}: {lines} triples, expected {answers['dump_nnz']}"]
    return []


def check_scores(path: str, answers: dict) -> list[str]:
    """Covered/total tokens per headline, and score rows that are means of
    unit-sum lexicon rows (or all zero when nothing is covered)."""
    lines = _data_lines(path)
    expected = answers["covered_total"]
    if not lines or not lines[0].startswith("id\t") or not lines[0].endswith("\tcovered\ttotal"):
        return [f"{path}: missing header"]
    problems = []
    seen = 0
    for line in lines[1:]:
        fields = line.split("\t")
        try:
            scores = [float(v) for v in fields[1:-2]]
            got = [int(fields[-2]), int(fields[-1])]
        except (ValueError, IndexError):
            problems.append(f"{path}: malformed row {line[:60]!r}")
            continue
        seen += 1
        if got != expected.get(fields[0]):
            problems.append(f"{path}: {fields[0]} covered/total {got}, expected {expected.get(fields[0])}")
        target = 1.0 if got[0] else 0.0
        if abs(sum(scores) - target) > ROW_SUM_TOLERANCE:
            problems.append(f"{path}: {fields[0]} scores sum to {sum(scores)!r}")
    if seen != answers["headlines"]:
        problems.append(f"{path}: {seen} rows, expected {answers['headlines']}")
    return problems


def check_report(path: str, answers: dict, *, positive_r: bool = True) -> list[str]:
    """Exact coverage and uncovered counts, a Pearson r per mapped target
    (positive on the planted emotions when ``positive_r``), DISGUST discarded."""
    values: dict[tuple[str, str, str], str] = {}
    for line in _data_lines(path)[1:]:
        fields = line.split("\t")
        if len(fields) == 4:
            values[(fields[0], fields[1], fields[2])] = fields[3]
    problems = []
    try:
        coverage = float(values[("coverage", "ALL", "mean_headline_coverage")])
        uncovered = int(values[("coverage", "ALL", "uncovered_headlines")])
        empty = int(values[("coverage", "ALL", "skipped_empty_headlines")])
    except (KeyError, ValueError):
        return [f"{path}: coverage rows missing or malformed"]
    if abs(coverage - answers["mean_coverage"]) > COVERAGE_TOLERANCE:
        problems.append(f"{path}: mean coverage {coverage!r}, expected {answers['mean_coverage']!r}")
    if uncovered != answers["uncovered"]:
        problems.append(f"{path}: {uncovered} uncovered headlines, expected {answers['uncovered']}")
    if empty != answers["empty"]:
        problems.append(f"{path}: {empty} empty headlines, expected {answers['empty']}")
    for target in answers["mapped"]:
        r = values.get(("regression", target, "pearson_r"))
        if r is None:
            problems.append(f"{path}: no pearson_r for {target}")
        elif positive_r and not float(r) > 0.0:
            problems.append(f"{path}: pearson_r {r} for planted {target} is not positive")
    if ("discarded", "DISGUST", "discarded_target") not in values:
        problems.append(f"{path}: DISGUST not reported as discarded")
    return problems


def check_output(kind: str, path: str, answers: dict, *, tiny: bool) -> list[str]:
    if kind == "lexicon":
        return check_lexicon(path, answers)
    if kind == "dump":
        return check_dump(path, answers)
    if kind == "scores":
        return check_scores(path, answers)
    # Pearson r over two headlines is +-1 by construction, so its sign says
    # nothing about the planted signal; only its presence is checked there.
    return check_report(path, answers, positive_r=not tiny)
