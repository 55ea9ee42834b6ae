"""Regenerates paper Table V: ablation of SKC and AKB.

Expected shape: removing either component loses points on average and
removing both loses the most (w/o both < w/o SKC, w/o AKB < full).
"""

from conftest import run_once

from repro.eval.experiments import table5_ablation


def test_table5(benchmark, ctx, record_result):
    result = run_once(benchmark, lambda: table5_ablation(ctx))
    record_result("table5_ablation", result["text"])
    average = result["rows"][-1]
    assert average["knowtrans"] > max(average["wo_skc"], average["wo_akb"])
    assert min(average["wo_skc"], average["wo_akb"]) > average["wo_skc_akb"]
