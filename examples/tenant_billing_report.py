#!/usr/bin/env python3
"""Tenant billing report: what a monthly invoice looks like under Litmus.

The scenario the paper's introduction motivates: tenants deploy ordinary
functions on a crowded multi-tenant machine; when the machine is congested
their functions run longer and — under commercial pay-as-you-go pricing —
cost *more*.  This example runs the 14 test functions in a 26-co-runner
environment and prints, per function, the commercial charge, the Litmus
charge, the ideal charge and the resulting refund.

It then switches from the batch evaluation to the streaming billing
service (:mod:`repro.serve`): the same fleet mechanics replayed chunk by
chunk, with per-tenant metering records published as the trace is
ingested — how a provider would actually invoice a live fleet.

Run with:  python examples/tenant_billing_report.py
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.reporting import format_table
from repro.experiments.config import one_per_core
from repro.experiments.harness import price_evaluation_cached

#: Nominal price of one GB-second, used only to render dollar-like figures.
RATE_DOLLARS_PER_GB_SECOND = 0.0000166667  # AWS Lambda's published rate
#: Pretend each function is invoked this many times over the billing period.
INVOCATIONS_PER_MONTH = 2_000_000


def invoice_rows(result) -> Tuple[List[Dict[str, object]], Dict[str, float]]:
    """Per-function invoice lines plus fleet-wide totals.

    Normalized prices are relative to the commercial charge; scaling them
    by a nominal per-invocation commercial cost makes the report read like
    an invoice.  The absolute scale is arbitrary, the ratios are not.
    """
    rows: List[Dict[str, object]] = []
    totals = {"commercial": 0.0, "litmus": 0.0, "ideal": 0.0}
    for row in result.rows:
        totals["commercial"] += 1.0
        totals["litmus"] += row.litmus_normalized_price
        totals["ideal"] += row.ideal_normalized_price
        rows.append(
            {
                "function": row.function,
                "commercial": 1.0,
                "litmus": row.litmus_normalized_price,
                "ideal": row.ideal_normalized_price,
                "refund_pct": row.litmus_discount * 100.0,
                "ideal_refund_pct": row.ideal_discount * 100.0,
            }
        )
    return rows, totals


def streamed_usage(
    preset: str = "smoke", chunk_epochs: int = 50
) -> Tuple[List[Dict[str, object]], object]:
    """Replay ``preset`` through the streaming service, invoicing as we go.

    Returns per-(scenario, function) usage rows aggregated purely from the
    :class:`~repro.serve.BillingRecord` deltas the publish sink receives —
    the streamed ledger, never the batch result — plus the pipeline's
    :class:`~repro.serve.StreamSummary`.
    """
    from repro.scenarios import chunk_plan, compile_spec, load_spec_or_preset
    from repro.serve import StreamPipeline, StreamReplay

    replay = StreamReplay(compile_spec(load_spec_or_preset(preset)))
    usage: Dict[Tuple[str, str], List[float]] = {}

    def publish(chunk_result) -> None:
        for record in chunk_result.records:
            entry = usage.setdefault((record.scenario, record.function), [0.0, 0.0, 0])
            entry[0] += record.true_gb_seconds
            entry[1] += record.billed_gb_seconds
            entry[2] += 1

    summary = StreamPipeline(
        replay, chunk_plan(replay.epochs_total, chunk_epochs), publish=publish
    ).run()
    rows = [
        {
            "scenario": scenario,
            "function": function,
            "true_gb_s": true,
            "billed_gb_s": billed,
            "updates": updates,
        }
        for (scenario, function), (true, billed, updates) in sorted(usage.items())
    ]
    return rows, summary


def main() -> None:
    config = one_per_core(name="billing-report", repetitions=2)
    print(
        f"pricing {config.total_functions} co-running functions on "
        f"{config.machine.name} ({config.co_runners} co-runners per invocation) ...\n"
    )
    result = price_evaluation_cached(config)

    rows, totals = invoice_rows(result)
    print(format_table(
        rows,
        columns=("function", "commercial", "litmus", "ideal", "refund_pct", "ideal_refund_pct"),
        title="Per-invocation prices, normalized to the commercial charge",
        float_format="{:.3f}",
    ))

    litmus_saving = 1.0 - totals["litmus"] / totals["commercial"]
    ideal_saving = 1.0 - totals["ideal"] / totals["commercial"]
    print(f"\nfleet-wide refund under Litmus pricing : {litmus_saving:6.2%}")
    print(f"fleet-wide refund under ideal pricing  : {ideal_saving:6.2%}")
    print(f"gap between Litmus and ideal           : {abs(litmus_saving - ideal_saving):6.2%}")

    # Make it concrete with a nominal per-month volume.
    avg_gb_seconds = 0.05  # a typical 256 MB x 200 ms invocation
    monthly_commercial = (
        RATE_DOLLARS_PER_GB_SECOND * avg_gb_seconds * INVOCATIONS_PER_MONTH * len(result.rows)
    )
    print(
        f"\nfor a tenant fleet of {len(result.rows)} functions x "
        f"{INVOCATIONS_PER_MONTH:,} invocations/month "
        f"(~${monthly_commercial:,.2f} commercial):"
    )
    print(f"  Litmus refund : ${monthly_commercial * litmus_saving:,.2f}")
    print(f"  ideal refund  : ${monthly_commercial * ideal_saving:,.2f}")

    # The live-service version of the same idea: meter and bill tenants
    # incrementally while the trace streams through repro.serve.
    print("\nstreaming the 'smoke' fleet through the billing service ...\n")
    usage_rows, summary = streamed_usage()
    print(format_table(
        usage_rows,
        columns=("scenario", "function", "true_gb_s", "billed_gb_s", "updates"),
        title="Per-tenant metered usage, aggregated from streamed billing records",
        float_format="{:.6f}",
    ))
    print(
        f"\nstreamed {summary.chunks} chunks / {summary.epochs} epochs, "
        f"{summary.records} billing records, {summary.completions} completions"
    )


if __name__ == "__main__":
    main()
