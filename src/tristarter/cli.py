"""Command-line surface.

Subcommands: verify, enumerate, hillclimb, triplicate, encode, solve,
invert, series.  Exit codes: 0 on success (UNSAT results and False verdicts
are successes, reported in the output), 1 on a domain refusal or an
external-solver failure, 2 on a structural or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .assembly import TriplicationResult, triplicate
from .dimacs import export_dimacs, import_dimacs_model, run_external_solver, to_dimacs_text
from .errors import ExternalSolverError, RefusedError, StructuralError
from .files import load_starter, pairing_to_obj, save_starter
from .harness import (
    run_inverse_sampling,
    run_key_sweep,
    run_order_sweep,
    write_records_csv,
)
from .model import check_solution, constraint_census, encode, uv_pairs
from .solver import BUDGET_EXHAUSTED, SAT, SolverConfig, solve
from .starters import (
    DEFAULT_ENUMERATION_BOUND,
    enumerate_strong_starters,
    hill_climb,
    kernel_backend,
)
from .triplication import build_table

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_STRUCTURAL = 2


def _report_obj(result, base, key) -> dict:
    obj = {
        "status": result.status,
        "order_base": base.modulus,
        "order_result": 3 * base.modulus,
        "key": key,
        "base": pairing_to_obj(base),
        "extension": [list(p) for p in result.table.extension],
        "stats": {
            "decisions": result.stats.decisions,
            "backtracks": result.stats.backtracks,
            "propagations": result.stats.propagations,
            "restarts": result.stats.restarts,
            "solve_ms": result.stats.duration_ms,
        },
    }
    if isinstance(result, TriplicationResult):
        obj["solution_uv"] = [
            list(p) for p in uv_pairs(result.instance, result.solution)]
        obj["starter_a"] = pairing_to_obj(result.starter_a)
        obj["starter_b"] = pairing_to_obj(result.starter_b)
        obj["verification"] = {
            name: {flag: getattr(starter.report, flag)
                   for flag in ("is_partition", "is_starter", "is_strong")}
            for name, starter in (("a", result.starter_a), ("b", result.starter_b))}
    else:
        obj["cause"] = result.cause
    return obj


def _cmd_verify(args) -> int:
    pairing = load_starter(args.starter)
    report = pairing.report
    print(f"order {pairing.modulus}: partition={report.is_partition} "
          f"starter={report.is_starter} strong={report.is_strong}")
    for line in report.diagnostics:
        print(f"  - {line}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    result = enumerate_strong_starters(args.order, cap=args.cap, bound=args.bound)
    print(f"order {args.order}: {result.count} strong starters")
    if result.starters:
        for s in result.starters:
            print("  " + " ".join(f"{a},{b}" for a, b in s.pairs))
    return EXIT_OK


def _cmd_hillclimb(args) -> int:
    starter = hill_climb(args.order, seed=args.seed)
    if args.out:
        save_starter(starter, args.out)
        print(f"wrote strong starter of order {args.order} to {args.out}")
    else:
        print(json.dumps(pairing_to_obj(starter)))
    return EXIT_OK


def _cross_check(args, instance):
    """Write ``--cnf-out`` and run ``--external-solver`` on the instance.

    Returns the external status and, on SAT, the decoded model after
    `check_solution` accepted it; ``(None, None)`` without a solver.
    """
    if not (args.cnf_out or args.external_solver):
        return None, None
    doc = export_dimacs(instance)
    text = to_dimacs_text(doc)
    if args.cnf_out:
        Path(args.cnf_out).write_text(text)
    if not args.external_solver:
        return None, None
    status, literals = run_external_solver(text, args.external_solver)
    if status != SAT:
        return status, None
    solution = import_dimacs_model(doc, literals)
    ok, violated = check_solution(instance, solution)
    if not ok:
        raise ExternalSolverError(f"external model violates {violated[0]}")
    return status, solution


def _cmd_triplicate(args) -> int:
    base = load_starter(args.base)
    result = triplicate(
        base, args.key,
        config=SolverConfig(seed=args.seed),
        force=args.force,
        allow_nonstrong=args.allow_nonstrong,
    )
    status, _ = _cross_check(args, result.instance)
    if status is not None:
        native = result.status
        agree = status == native or (native == BUDGET_EXHAUSTED)
        print(f"external solver: {status} ({'agrees' if agree else 'DISAGREES'})")
        if not agree:
            raise ExternalSolverError(
                f"external solver says {status}, native says {native}")

    prefix = args.out or f"{Path(args.base).stem}-k{args.key}"
    report_path = Path(f"{prefix}.report.json")
    report_path.write_text(json.dumps(_report_obj(result, base, args.key), indent=1) + "\n")
    if isinstance(result, TriplicationResult):
        save_starter(result.starter_a, f"{prefix}.a.json")
        save_starter(result.starter_b, f"{prefix}.b.json")
        print(f"SAT: strong starter of order {3 * base.modulus}; "
              f"wrote {prefix}.a.json, {prefix}.b.json, {report_path}")
    else:
        cause = f" ({result.cause})" if result.cause else ""
        print(f"{result.status}{cause}; wrote {report_path}")
    return EXIT_OK


def _cmd_encode(args) -> int:
    instance = encode(build_table(load_starter(args.base), args.key))
    census = constraint_census(instance)
    print(f"variables: {instance.num_variables}")
    for name, count in census.items():
        print(f"{name}: {count}")
    if instance.trivially_unsat_reason:
        print(f"trivially unsatisfiable: {instance.trivially_unsat_reason}")
    if args.cnf_out:
        doc = export_dimacs(instance)
        Path(args.cnf_out).write_text(to_dimacs_text(doc))
        print(f"wrote {doc.num_bools} boolean variables, "
              f"{len(doc.clauses)} clauses to {args.cnf_out}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance = encode(build_table(load_starter(args.base), args.key))
    status, solution = _cross_check(args, instance)
    if status is not None:
        print(f"external: {status}")
        if solution is not None:
            print("solution_uv: " + json.dumps(uv_pairs(instance, solution)))
        return EXIT_OK
    outcome = solve(instance, SolverConfig(seed=args.seed))
    print(f"{outcome.status} decisions={outcome.stats.decisions} "
          f"backtracks={outcome.stats.backtracks} "
          f"propagations={outcome.stats.propagations} "
          f"restarts={outcome.stats.restarts} "
          f"solve_ms={outcome.stats.duration_ms}")
    if outcome.solution is not None:
        print("solution_uv: " + json.dumps(uv_pairs(instance, outcome.solution)))
    return EXIT_OK


def _cmd_invert(args) -> int:
    from .inverse import inverse_test

    starter = load_starter(args.starter)
    verdict = inverse_test(starter)
    print(f"verdict: {verdict.status} (key {verdict.key})")
    if verdict.failed_difference is not None:
        print(f"row with difference {verdict.failed_difference} admits no valid ordering")
    for cand in verdict.candidates:
        flags = cand.base.report
        print(f"candidate key={cand.key} starter={flags.is_starter} "
              f"strong={flags.is_strong}: "
              + " ".join(f"{a},{b}" for a, b in cand.base.pairs))
    return EXIT_OK


def _cmd_series(args) -> int:
    # --seed seeds the sweep only; every search runs with SolverConfig().
    if args.mode == "inverse-sampling":
        if not (args.order and args.samples):
            raise StructuralError("inverse-sampling needs --order and --samples")
        result = run_inverse_sampling(args.order, args.samples, seed=args.seed)
        print(f"order {result.order}: {result.inconclusive} inconclusive of "
              f"{result.samples} samples ({100 * result.fraction:.3f}%), "
              f"{result.generation_failures} generation failures, "
              f"{result.sampler} sampler")
        if args.out:
            Path(args.out).write_text(
                "order,samples,inconclusive,fraction,generation_failures\n"
                f"{result.order},{result.samples},{result.inconclusive},"
                f"{result.fraction:.6f},{result.generation_failures}\n")
        return EXIT_OK
    if args.mode == "order-sweep":
        result = run_order_sweep(_parse_orders(args), seed=args.seed)
        for order, message in result.failures:
            print(f"order {order} failed: {message}", file=sys.stderr)
        records = result.records
    else:
        if not args.base:
            raise StructuralError("key-sweep needs --base")
        records = run_key_sweep(load_starter(args.base))
    text = write_records_csv(records, args.out)
    if args.out:
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _parse_orders(args) -> list[int]:
    if args.orders:
        try:
            return [int(tok) for tok in args.orders.split(",") if tok.strip()]
        except ValueError:
            raise StructuralError(f"bad --orders list {args.orders!r}") from None
    if args.order:
        return [args.order]
    raise StructuralError("order-sweep needs --order or --orders")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tristarter",
        description="Construct strong starters of order 3p from strong "
                    "starters of order p via the mod-3 constraint route.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__} ({kernel_backend()} kernels)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the starter definitions on a file")
    p.add_argument("--starter", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="count strong starters exhaustively")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--cap", type=int, help="also list up to this many starters")
    p.add_argument("--bound", type=int, default=DEFAULT_ENUMERATION_BOUND,
                   help="override the enumeration bound")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("hillclimb", help="generate a strong starter")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the starter here (.json or text)")
    p.set_defaults(func=_cmd_hillclimb)

    p = sub.add_parser("triplicate", help="run the full pipeline for (base, key)")
    p.add_argument("--base", required=True)
    p.add_argument("--key", type=int, required=True)
    p.add_argument("--force", action="store_true",
                   help="run even with an inadmissible key")
    p.add_argument("--allow-nonstrong", action="store_true",
                   help="accept a base that is a starter but not strong")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the restarts' tie-breaking")
    p.add_argument("--out", help="output prefix for report and starter files")
    p.add_argument("--cnf-out", help="also export the instance as DIMACS CNF")
    p.add_argument("--external-solver",
                   help="command template for a cross-check; a SAT model is "
                        "decoded and checked")
    p.set_defaults(func=_cmd_triplicate)

    p = sub.add_parser("encode", help="build and describe the constraint instance")
    p.add_argument("--base", required=True)
    p.add_argument("--key", type=int, required=True)
    p.add_argument("--cnf-out", help="write DIMACS CNF here")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("solve", help="solve the instance for (base, key)")
    p.add_argument("--base", required=True)
    p.add_argument("--key", type=int, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the restarts' tie-breaking")
    p.add_argument("--cnf-out")
    p.add_argument("--external-solver",
                   help="solve via this external command instead")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("invert", help="test whether a starter is a triplication image")
    p.add_argument("--starter", required=True)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("series", help="experiment sweeps emitting CSV")
    p.add_argument("--mode", required=True,
                   choices=["key-sweep", "order-sweep", "inverse-sampling"])
    p.add_argument("--base")
    p.add_argument("--order", type=int)
    p.add_argument("--orders", help="comma-separated list for order-sweep")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the order sweep or the sampling study")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_series)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RefusedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ExternalSolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
