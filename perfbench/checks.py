"""Correctness checks; each returns a list of problems (empty when correct)."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple


def exit_code(label: str, rc: int, stderr: str = "") -> List[str]:
    if rc == 0:
        return []
    tail = stderr.strip().splitlines()[-3:]
    return [f"{label}: exit code {rc}" + (f" ({' | '.join(tail)})" if tail else "")]


def adapt_score(stdout: str) -> Optional[float]:
    """The test score of a ``repro adapt --json`` run, or None."""
    try:
        return float(json.loads(stdout)["score"])
    except (ValueError, KeyError, TypeError):
        return None


def same_scores(records: Sequence[Tuple[str, Optional[float]]]) -> List[str]:
    """Every dataset's adapt score is present and identical across ops."""
    problems = []
    first: Dict[str, float] = {}
    for dataset, score in records:
        if score is None:
            problems.append(f"{dataset}: no score in the adapt output")
        elif dataset not in first:
            first[dataset] = score
        elif score != first[dataset]:
            problems.append(
                f"{dataset}: score {score!r} differs from {first[dataset]!r}"
            )
    return problems


def same_rows(reference: Any, passes: Sequence[Any]) -> List[str]:
    """Every grid pass returned rows identical to the reference pass."""
    if not reference:
        return ["grid: the reference pass returned no rows"]
    return [
        f"grid pass {index}: rows differ from the reference pass"
        for index, rows in enumerate(passes)
        if rows != reference
    ]


def predictions_match(
    responses: Sequence[Optional[Dict[str, Any]]],
    expected: Sequence[Sequence[int]],
) -> Tuple[int, List[str]]:
    """Count served predictions bit-identical to the offline oracle."""
    matches = 0
    problems = []
    for index, (response, oracle) in enumerate(zip(responses, expected)):
        if response is None or not response.get("ok"):
            continue  # counted as failed by the load generator
        if list(response.get("predictions", ())) == list(oracle):
            matches += 1
        else:
            problems.append(f"predict {index}: served predictions differ from the oracle")
    return matches, problems


def stream_updates(
    exchanges: Sequence[Tuple[int, Optional[Dict[str, Any]]]],
) -> List[str]:
    """Every update is ok and ``stream_rows`` grows by exactly the rows sent."""
    problems = []
    rows = 0
    for index, (sent, response) in enumerate(exchanges):
        if response is None or not response.get("ok"):
            problems.append(f"stream_update {index}: not ok ({response})")
            return problems
        rows += sent
        if response.get("stream_rows") != rows:
            problems.append(
                f"stream_update {index}: stream_rows "
                f"{response.get('stream_rows')} != {rows}"
            )
            return problems
    return problems
