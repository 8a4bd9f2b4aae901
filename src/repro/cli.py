"""Command-line interface: ``python -m repro <command> ...``.

Commands:

    list        show stations, workload mixes, and policies
    panel       characterize the BP3180N panel at a condition
    trace       summarize a synthetic weather day
    simulate    run one day under a policy (or fixed budget / battery)
    rack        simulate a rack of chips on a shared solar farm
    campaign    multi-realization campaign with carbon accounting
    experiment  regenerate a paper figure, table or the claims card (or all)
    profile     run day simulations with the hot-path profiler armed
    runs        list/show/diff recorded run manifests
    serve       long-running job server with live telemetry streaming

Observability flags (available on every command):

    --log-level LEVEL   stdlib logging threshold for the repro package
    --trace FILE        write a JSONL telemetry trace of structured events
    --telemetry         enable metrics/spans without writing a trace file
    --profile           arm the hot-path profiler and print the phase report
    --ledger            record a provenance manifest under --runs-dir

With ``--trace`` or ``--telemetry``, ``simulate``/``rack``/``campaign``/
``experiment`` print a post-run summary of counters, histograms, and span
timings.  Example::

    repro simulate --mix mixed --location PFCI --month 6 --trace /tmp/t.jsonl

``campaign`` and ``experiment`` additionally accept the parallel-sweep
flags: ``--jobs N`` fans the day-simulation grid out across N worker
processes, and ``--cache-dir DIR`` persists every result to a
content-addressed disk cache (reused across runs, invalidated whenever
the ``repro`` source changes).  ``experiment`` prefetches the days its
artifact reads (``all``: the union for every artifact, once)::

    repro experiment fig18 --jobs 4 --cache-dir ~/.cache/solarcore
    repro experiment all --solver table --jobs 2

Resilience flags (same commands): ``--retries N`` re-runs failed sweep
tasks with exponential backoff and ``--task-timeout S`` bounds each task
(with ``--jobs`` >= 2: only a worker process can be abandoned).
Every finished cell is stored to the ``--cache-dir`` as it arrives, so a
crashed campaign resumes by rerunning it with the same ``--cache-dir``.
``simulate``/``rack``/``campaign`` accept ``--faults SPEC`` to inject a
deterministic fault schedule (see ``repro.faults``)::

    repro campaign --sites AZ TN --months 1 7 --jobs 4 \\
        --faults 'sensor_dropout@600-660,seed=7' \\
        --cache-dir /tmp/campaign-cache

Performance observability: ``repro profile`` (or ``--profile`` on any
simulating command) attributes wall-time to engine phases and counts
``brentq`` solver work; ``--ledger`` records an atomic provenance
manifest (config key, code fingerprint, cache tier counts, host info)
that ``repro runs list|show|diff`` reads back::

    repro profile --mix HM2 --site AZ --month 7
    repro experiment fig18 --jobs 4 --ledger
    repro runs diff 20260808-120000-experiment 20260808-130000-experiment

``repro serve`` turns the harness into a long-running service: jobs are
POSTed as JSON to ``/jobs`` (the ``SweepTask`` config surface, including
``solver`` and ``faults``), identical concurrent requests coalesce onto
one compute, and ``/ws/telemetry`` streams live events and metric
snapshots over WebSocket.  With ``--ledger``, every terminal job records
a provenance manifest under ``--runs-dir``::

    repro serve --port 8321 --cache-dir ~/.cache/solarcore --ledger
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]

#: Commands that print a telemetry summary table after running.
_SUMMARY_COMMANDS = frozenset({"simulate", "rack", "campaign", "experiment",
                               "profile"})

#: Commands that run simulations and may record a provenance manifest.
_LEDGER_COMMANDS = _SUMMARY_COMMANDS


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    from repro.core.load_tuning import TUNER_NAMES
    from repro.environment.locations import ALL_LOCATIONS
    from repro.workloads.mixes import ALL_MIX_NAMES, mix

    print("stations:")
    for loc in ALL_LOCATIONS:
        print(f"  {loc.code:5s} {loc.name:22s} {loc.potential}")
    print("\nworkload mixes:")
    for name in ALL_MIX_NAMES:
        benches = ", ".join(b.name for b in mix(name).benchmarks)
        print(f"  {name:4s} {benches}")
    print("\npolicies:")
    for name in TUNER_NAMES:
        print(f"  {name}")
    print("  Fixed-<watts>  (via simulate --fixed-budget)")
    print("  Battery        (via simulate --battery-derating)")
    print("\nchip presets (--chip; custom mixes via the spec grammar):")
    from repro.multicore.spec import CHIP_PRESETS

    for name, spec in CHIP_PRESETS.items():
        print(f"  {spec.describe()}")
    return 0


def _cmd_panel(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.harness.reporting import format_table, sparkline
    from repro.pv.curves import sample_iv_curve
    from repro.pv.module import PVModule
    from repro.pv.mpp import find_mpp
    from repro.pv.params import bp3180n

    if args.shading:
        from repro.pv.shading import ShadedSeriesString, find_global_mpp

        factors = tuple(float(f) for f in args.shading.split(","))
        string = ShadedSeriesString(factors)
        mpp = find_global_mpp(string, args.irradiance, args.temperature)
        voc = string.open_circuit_voltage(args.irradiance, args.temperature)
        voltages = np.linspace(1e-3, voc * 0.999, 120)
        powers = [
            string.power(float(v), args.irradiance, args.temperature)
            for v in voltages
        ]
        print(f"{len(factors)}-module string, shading {factors}, "
              f"G={args.irradiance:.0f} W/m^2, T={args.temperature:.0f} C")
        print(f"global MPP {mpp.power:.1f} W at {mpp.voltage:.1f} V "
              f"(Voc {voc:.1f} V)")
        print(f"P-V |{sparkline(powers)}|")
        return 0

    module = PVModule(bp3180n())
    curve = sample_iv_curve(module, args.irradiance, args.temperature, 150)
    mpp = find_mpp(module, args.irradiance, args.temperature)
    print(f"{module.params.name} at G={args.irradiance:.0f} W/m^2, "
          f"T={args.temperature:.0f} C")
    print(format_table(
        ["quantity", "value"],
        [
            ["Isc", f"{curve.isc:.2f} A"],
            ["Voc", f"{curve.voc:.2f} V"],
            ["Vmpp", f"{mpp.voltage:.2f} V"],
            ["Impp", f"{mpp.current:.2f} A"],
            ["Pmax", f"{mpp.power:.1f} W"],
        ],
    ))
    print(f"P-V |{sparkline(curve.power)}|")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.environment.irradiance import generate_trace
    from repro.environment.locations import location_by_code
    from repro.harness.reporting import sparkline

    location = location_by_code(args.site)
    trace = generate_trace(location, args.month, seed=args.seed)
    print(f"{location.name}, month {args.month} ({trace.label})")
    print(f"  insolation {trace.daily_insolation_kwh_m2():.2f} kWh/m^2 "
          f"(daytime window), peak {trace.peak_irradiance():.0f} W/m^2")
    print(f"  G(t) |{sparkline(trace.irradiance)}|")
    print(f"  T(t) {trace.ambient_c.min():.1f} .. {trace.ambient_c.max():.1f} C")
    return 0


def _solver_config(args: argparse.Namespace):
    """The :class:`SolarCoreConfig` the command's flags ask for."""
    from repro.core.config import SolarCoreConfig

    return SolarCoreConfig(
        solver=getattr(args, "solver", "exact"),
        chip_spec=getattr(args, "chip", "alpha8"),
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.simulation import run_day, run_day_battery, run_day_fixed
    from repro.environment.locations import location_by_code

    config = _solver_config(args)
    location = location_by_code(args.site)
    if args.battery_derating is not None:
        day = run_day_battery(
            args.mix, location, args.month, args.battery_derating,
            config=config, faults=args.faults,
        )
        print(f"battery system (derating {day.derating:.0%}) "
              f"{day.mix_name} @ {day.location_code} m{day.month}")
        print(f"  harvested {day.harvested_wh:.0f} Wh, "
              f"full-speed runtime {day.runtime_minutes:.0f} min, "
              f"PTP {day.ptp:.0f} Ginst")
        return 0

    if args.fixed_budget is not None:
        day = run_day_fixed(
            args.mix, location, args.month, args.fixed_budget,
            config=config, faults=args.faults,
        )
    else:
        day = run_day(args.mix, location, args.month, args.policy,
                      config=config, faults=args.faults)
    if args.export_csv:
        from repro.harness.export import day_to_csv

        day_to_csv(day, args.export_csv)
        print(f"wrote {args.export_csv}")
    if args.export_json:
        from repro.harness.export import day_to_json

        day_to_json(day, args.export_json)
        print(f"wrote {args.export_json}")
    print(f"{day.policy} {day.mix_name} @ {day.location_code} m{day.month}")
    print(f"  solar available   {day.solar_available_wh:8.1f} Wh")
    print(f"  solar consumed    {day.solar_used_wh:8.1f} Wh "
          f"({day.energy_utilization:.1%} utilization)")
    print(f"  utility backup    {day.utility_wh:8.1f} Wh")
    print(f"  solar duration    {day.effective_duration_fraction:8.1%}")
    print(f"  tracking error    {day.mean_tracking_error:8.1%}")
    print(f"  tracking_events   {day.tracking_events:8d}")
    print(f"  dvfs transitions  {day.dvfs_transitions:8d}")
    print(f"  PTP               {day.ptp:8.0f} Ginst")
    return 0


def _sweep_runner(args: argparse.Namespace):
    """The :class:`SimulationRunner` the solver, chip and sweep flags ask for."""
    from repro.harness.runner import SimulationRunner

    return SimulationRunner(
        _solver_config(args),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        retries=args.retries,
        task_timeout=args.task_timeout,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.core.campaign import run_campaign
    from repro.environment.locations import location_by_code
    from repro.harness.reporting import format_table

    locations = [location_by_code(code) for code in args.sites]
    campaign = run_campaign(
        args.mix, locations, tuple(args.months),
        days_per_cell=args.days, policy=args.policy,
        runner=_sweep_runner(args),
        faults=args.faults,
    )
    rows = []
    for cell in campaign.cells:
        rows.append([
            cell.location_code,
            str(cell.month),
            f"{cell.mean('energy_utilization'):.1%}"
            f" ± {cell.std('energy_utilization'):.1%}",
            f"{cell.mean('effective_duration_fraction'):.1%}",
            f"{cell.mean('ptp'):,.0f}",
        ])
    print(format_table(
        ["site", "month", "utilization", "solar duration", "mean PTP (Ginst)"],
        rows,
    ))
    carbon = campaign.carbon()
    print(f"\noverall utilization {campaign.overall_utilization:.1%} "
          f"over {len(campaign.all_days)} simulated days")
    print(f"carbon: {carbon.avoided_kg:.2f} kg CO2 avoided, "
          f"{carbon.emitted_kg:.2f} kg emitted "
          f"({carbon.reduction_fraction:.0%} footprint reduction)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run day simulation(s) purely to profile them.

    The profile itself is armed by :func:`main` (the ``profile`` command
    always installs a hub with ``profile=True``); this handler just
    runs the requested days and prints the headline result — the phase
    report follows from the shared summary path.
    """
    from repro.core.simulation import run_day
    from repro.environment.locations import location_by_code

    config = _solver_config(args)
    location = location_by_code(args.site)
    day = None
    for _ in range(args.repeat):
        day = run_day(args.mix, location, args.month, args.policy,
                      config=config, faults=args.faults)
    print(f"profiled {args.repeat} x {day.policy} {day.mix_name} "
          f"@ {day.location_code} m{day.month} (PTP {day.ptp:.0f} Ginst)")
    if config.solver == "table":
        from repro.power.surface import get_surfaces
        from repro.pv.array import PVArray

        surfaces = get_surfaces(PVArray())
        if surfaces is not None:
            print("\nsurface error contract:")
            print(surfaces.report())
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.harness.runledger import (
        RunLedger,
        diff_manifests,
        render_manifest,
        render_run_list,
    )

    ledger = RunLedger(args.runs_dir)
    try:
        if args.runs_command == "list":
            ids = ledger.run_ids()
            if not ids:
                print(f"no runs recorded under {ledger.root}")
                return 0
            print(render_run_list([ledger.load(run_id) for run_id in ids]))
        elif args.runs_command == "show":
            run_id = args.run
            if run_id is None:
                ids = ledger.run_ids()
                if not ids:
                    print(f"no runs recorded under {ledger.root}",
                          file=sys.stderr)
                    return 2
                run_id = ids[-1]
            print(render_manifest(ledger.load(run_id)))
        else:  # diff
            print(diff_manifests(ledger.load(args.run_a), ledger.load(args.run_b)))
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.harness.artifacts import ARTIFACTS

    name = args.name.lower()
    if name != "all" and name not in ARTIFACTS:
        print(f"unknown experiment {args.name!r}; "
              f"known: {', '.join(ARTIFACTS)}, all", file=sys.stderr)
        return 2
    names = list(ARTIFACTS) if name == "all" else [name]
    runner = _sweep_runner(args)
    runner.prefetch(task for each in names for task in ARTIFACTS[each].tasks)
    for each in names:
        artifact = ARTIFACTS[each]
        if name == "all":
            print(f"===== {each} =====")
        print(artifact.render(artifact.build(runner)))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _int_in(low: int, high: int | None = None):
    """An argparse ``type`` for integers in ``[low, high]`` (no upper bound
    when ``high`` is None), so a bad value is a usage error naming its flag."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}-{high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


_month = _int_in(1, 12)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SolarCore (HPCA 2011) reproduction toolkit",
    )

    # Observability flags shared by every subcommand, e.g.
    #   repro simulate --mix mixed --location PFCI --month 6 --trace t.jsonl
    common = argparse.ArgumentParser(add_help=False)
    obs = common.add_argument_group("observability")
    obs.add_argument("--log-level", default=None,
                     metavar="LEVEL",
                     help="stdlib logging threshold for the repro package "
                          "(debug/info/warning/error)")
    obs.add_argument("--trace", default=None, metavar="FILE",
                     help="write structured telemetry events to FILE as JSONL "
                          "(implies --telemetry)")
    obs.add_argument("--telemetry", action="store_true",
                     help="collect metrics/spans and print a post-run summary")
    obs.add_argument("--profile", action="store_true",
                     help="arm the hot-path profiler and print the per-phase "
                          "wall-time report after the run")
    obs.add_argument("--ledger", action="store_true",
                     help="record an atomic run-provenance manifest under "
                          "--runs-dir after the run")
    obs.add_argument("--runs-dir", default="runs", metavar="DIR",
                     help="directory for run manifests (default: runs/)")

    # Parallel-sweep flags for the grid-shaped commands, e.g.
    #   repro experiment fig18 --jobs 4 --cache-dir ~/.cache/solarcore
    sweep = argparse.ArgumentParser(add_help=False)
    par = sweep.add_argument_group("parallel sweep")
    par.add_argument("--jobs", type=_int_in(1), default=1, metavar="N",
                     help="fan day simulations out over N worker processes")
    par.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="persist day results to a content-addressed disk "
                          "cache under DIR (reused across runs; invalidated "
                          "when the repro source changes)")
    res = sweep.add_argument_group("resilience")
    res.add_argument("--retries", type=_int_in(0), default=0, metavar="N",
                     help="retry failed sweep tasks up to N more times "
                          "(exponential backoff, fresh workers)")
    res.add_argument("--task-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-task wall-clock budget for parallel sweeps "
                          "(needs --jobs >= 2); tasks over budget are failed "
                          "and retried")

    # Electrical solver choice for the simulating commands, e.g.
    #   repro campaign --sites AZ TN --solver table
    solver = argparse.ArgumentParser(add_help=False)
    eng = solver.add_argument_group("electrical solver")
    eng.add_argument("--solver", choices=["exact", "table"], default="exact",
                     help="exact: Lambert-W/brentq per step (bit-reproducible "
                          "reference); table: precomputed interpolation "
                          "surfaces + batched day engine (10x+ faster, "
                          "accuracy per the declared error bound)")

    # Chip model choice for the simulating commands, e.g.
    #   repro simulate --site AZ --month 7 --chip biglittle
    #   repro campaign --sites AZ --chip 'big*4+little*4@45nm:cons'
    chip = argparse.ArgumentParser(add_help=False)
    chp = chip.add_argument_group("chip model")
    chp.add_argument("--chip", default="alpha8",
                     help="chip spec: a preset (alpha8, biglittle, hetero3, "
                          "little8) or the mix grammar "
                          "'type*count+...@<node>nm:<model>[;uncore=W]' "
                          "(default: alpha8, the paper's homogeneous chip)")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show stations, mixes, and policies",
                   parents=[common])

    panel = sub.add_parser("panel", help="characterize the BP3180N panel",
                           parents=[common])
    panel.add_argument("--irradiance", type=float, default=1000.0)
    panel.add_argument("--temperature", type=float, default=25.0)
    panel.add_argument("--shading", default=None,
                       help="comma-separated per-module factors, e.g. 1.0,0.4")

    trace = sub.add_parser("trace", help="summarize a synthetic weather day",
                           parents=[common])
    trace.add_argument("--site", "--location", dest="site", default="AZ")
    trace.add_argument("--month", type=_month, default=7)
    trace.add_argument("--seed", type=int, default=None)

    simulate = sub.add_parser("simulate", help="run one day simulation",
                              parents=[common, solver, chip])
    simulate.add_argument("--mix", default="HM2")
    simulate.add_argument("--site", "--location", dest="site", default="AZ",
                          help="station code (PFCI/BMS/ECSU/ORNL or AZ/CO/NC/TN)")
    simulate.add_argument("--month", type=_month, default=7)
    simulate.add_argument("--policy", default="MPPT&Opt")
    simulate.add_argument("--fixed-budget", type=float, default=None,
                          help="run the Fixed-Power baseline at this budget [W]")
    simulate.add_argument("--battery-derating", type=float, default=None,
                          help="run the battery baseline at this de-rating")
    simulate.add_argument("--export-csv", default=None,
                          help="write the day's time series to a CSV file")
    simulate.add_argument("--export-json", default=None,
                          help="write series + metrics to a JSON file")
    simulate.add_argument("--faults", default=None, metavar="SPEC",
                          help="inject a fault schedule, e.g. "
                               "'sensor_dropout@600-660,conv_eff@400-:0.85'")

    rack = sub.add_parser("rack", help="simulate a rack on a shared farm",
                          parents=[common, solver, chip])
    rack.add_argument("--mixes", nargs="+", default=["H1", "L1", "HM2", "ML2"])
    rack.add_argument("--site", "--location", dest="site", default="AZ")
    rack.add_argument("--month", type=_month, default=7)
    rack.add_argument("--policy", default="tpr",
                      choices=["equal", "proportional", "tpr"])
    rack.add_argument("--faults", default=None, metavar="SPEC",
                      help="inject a fault schedule into the shared farm")

    campaign = sub.add_parser("campaign", help="multi-day campaign + carbon",
                              parents=[common, sweep, solver, chip])
    campaign.add_argument("--mix", default="HM2")
    campaign.add_argument("--sites", "--locations", dest="sites", nargs="+",
                          default=["AZ", "TN"])
    campaign.add_argument("--months", nargs="+", type=_month, default=[1, 7])
    campaign.add_argument("--days", type=_int_in(1), default=3)
    campaign.add_argument("--policy", default="MPPT&Opt")
    campaign.add_argument("--faults", default=None, metavar="SPEC",
                          help="apply a fault schedule to every campaign day")

    experiment = sub.add_parser("experiment", help="regenerate a paper artifact",
                                parents=[common, sweep, solver, chip])
    experiment.add_argument("name", help="a paper artifact such as fig18, table7 "
                            "or headlines (an unknown name lists them all), "
                            "or all for every artifact")

    profile = sub.add_parser(
        "profile", help="profile day simulations (phase wall-time + solver work)",
        parents=[common, solver, chip])
    profile.add_argument("--mix", default="HM2")
    profile.add_argument("--site", "--location", dest="site", default="AZ")
    profile.add_argument("--month", type=_month, default=7)
    profile.add_argument("--policy", default="MPPT&Opt")
    profile.add_argument("--repeat", type=_int_in(1), default=1, metavar="N",
                         help="profile N identical days (steadier shares)")
    profile.add_argument("--faults", default=None, metavar="SPEC",
                         help="inject a fault schedule into the profiled day")

    runs = sub.add_parser("runs", help="inspect recorded run manifests",
                          parents=[common])
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    # Each sub-subcommand re-parents [common] so flags like --runs-dir
    # work both before and after it (`runs list --runs-dir X`).
    runs_sub.add_parser("list", help="one line per recorded run",
                        parents=[common])
    runs_show = runs_sub.add_parser("show", help="full manifest of one run",
                                    parents=[common])
    runs_show.add_argument("run", nargs="?", default=None,
                           help="run id (default: most recent)")
    runs_diff = runs_sub.add_parser("diff", help="compare two runs field by field",
                                    parents=[common])
    runs_diff.add_argument("run_a")
    runs_diff.add_argument("run_b")

    serve = sub.add_parser(
        "serve", help="run the async job server (HTTP + WebSocket)",
        parents=[common, solver, chip])
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8321,
                       help="bind port; 0 picks an ephemeral port")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="shared persistent result cache for every job "
                            "(servers on one host sharing it compute each "
                            "key once)")
    serve.add_argument("--max-workers", type=_int_in(1), default=4,
                       metavar="N",
                       help="compute threads multiplexing jobs (default: 4)")
    serve.add_argument("--queue-size", type=int, default=256, metavar="N",
                       help="per-WebSocket-client bounded queue capacity "
                            "(oldest messages drop when a client is slow)")
    serve.add_argument("--snapshot-interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="telemetry snapshot cadence on /ws/telemetry "
                            "(0 disables snapshots)")
    serve.add_argument("--max-queue", type=_int_in(0), default=0,
                       metavar="N",
                       help="bounded admission: reject submissions with 429 "
                            "once N jobs are live (0 = unbounded)")
    serve.add_argument("--journal-dir", default=None, metavar="DIR",
                       help="crash-safe job journal: acknowledged jobs are "
                            "fsynced here and replayed on restart")
    serve.add_argument("--recover", choices=("retry", "fail"), default="retry",
                       help="what replay does with jobs the dead process was "
                            "running: re-enqueue them (retry, default) or "
                            "fail them (fail)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="SIGTERM/SIGINT grace: wait this long for "
                            "in-flight jobs before journaling them as "
                            "interrupted (default: 10)")

    return parser


def _cmd_rack(args: argparse.Namespace) -> int:
    from repro.environment.locations import location_by_code
    from repro.rack import run_day_rack

    location = location_by_code(args.site)
    day = run_day_rack(tuple(args.mixes), location, args.month, args.policy,
                       config=_solver_config(args), faults=args.faults)
    print(f"rack [{', '.join(day.mix_names)}] @ {day.location_code} "
          f"m{day.month}, division={day.policy}")
    print(f"  rack PTP          {day.total_ptp:10.0f} Ginst")
    print(f"  energy utilization {day.energy_utilization:9.1%}")
    print(f"  solar duration    {day.effective_duration_fraction:10.1%}")
    for name, ginst in zip(day.mix_names, day.retired_ginst):
        print(f"  chip {name:4s} {ginst:10.0f} Ginst")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service.app import SolarCoreService

    service = SolarCoreService(
        _solver_config(args),
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        max_workers=args.max_workers,
        client_queue_size=args.queue_size,
        snapshot_interval_s=args.snapshot_interval,
        runs_dir=args.runs_dir if args.ledger else None,
        max_queue=args.max_queue or None,
        journal_dir=args.journal_dir,
        recover=args.recover,
        drain_timeout_s=args.drain_timeout,
    )

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-POSIX loop: Ctrl-C falls back to KeyboardInterrupt
        await service.start()
        print(f"solarcore service on http://{service.host}:{service.port}  "
              f"(POST /jobs, GET /stats, WS /ws/telemetry; Ctrl-C stops)",
              flush=True)
        serve_task = asyncio.ensure_future(service.serve_forever())
        stop_task = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait(
                {serve_task, stop_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
            if stop.is_set():
                print("\ndraining (waiting for in-flight jobs) ...", flush=True)
                report = await service.drain()
                print(f"drain: {report}", flush=True)
        finally:
            for task in (serve_task, stop_task):
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
            await service.aclose()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    print("service stopped", flush=True)
    return 0


_HANDLERS = {
    "list": _cmd_list,
    "panel": _cmd_panel,
    "trace": _cmd_trace,
    "simulate": _cmd_simulate,
    "campaign": _cmd_campaign,
    "experiment": _cmd_experiment,
    "rack": _cmd_rack,
    "profile": _cmd_profile,
    "runs": _cmd_runs,
    "serve": _cmd_serve,
}


def _record_run(args: argparse.Namespace, argv, hub, duration_s: float) -> None:
    """Write the --ledger provenance manifest for a finished command."""
    from repro.harness.runledger import RunLedger, build_manifest

    full_argv = list(argv) if argv is not None else sys.argv[1:]
    if full_argv and full_argv[0] == args.command:
        full_argv = full_argv[1:]  # the command renders separately
    manifest = build_manifest(
        args.command,
        full_argv,
        config=_solver_config(args),
        faults=getattr(args, "faults", None),
        jobs=getattr(args, "jobs", None),
        duration_s=duration_s,
        telemetry=hub,
    )
    path = RunLedger(args.runs_dir).record(manifest)
    print(f"recorded run manifest {path}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "task_timeout", None) is not None and args.jobs < 2:
        parser.error("--task-timeout needs --jobs >= 2: only a worker "
                     "process can be abandoned when a task hangs")

    if args.log_level is not None:
        from repro.telemetry import configure_logging

        try:
            configure_logging(args.log_level)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    # The profile command always arms the profiler; --ledger needs a hub
    # to have counters worth recording, even without --telemetry.
    profiling = getattr(args, "profile", False) or args.command == "profile"
    ledgering = getattr(args, "ledger", False) and args.command in _LEDGER_COMMANDS
    if not (args.trace or args.telemetry or profiling or ledgering):
        return _HANDLERS[args.command](args)

    # Telemetry requested: install a hub for the duration of the command,
    # stream events to the JSONL trace if asked, and print the summary.
    import time as _time

    from repro import telemetry

    hub = telemetry.Telemetry(profile=profiling)
    if args.trace:
        try:
            hub.add_sink(telemetry.JsonlSink(args.trace))
        except OSError as exc:
            print(f"error: cannot open trace file: {exc}", file=sys.stderr)
            return 2
    previous = telemetry.set_telemetry(hub)
    start = _time.perf_counter()
    try:
        code = _HANDLERS[args.command](args)
    finally:
        duration_s = _time.perf_counter() - start
        telemetry.set_telemetry(previous)
        hub.close()
    if args.trace:
        print(f"wrote telemetry trace {args.trace}")
    if (args.trace or args.telemetry) and args.command in _SUMMARY_COMMANDS:
        summary = telemetry.render_summary(hub)
        if summary:
            print(f"\n{summary}")
    if profiling:
        report = telemetry.render_profile(hub)
        if report:
            print(f"\n{report}")
        else:
            print("\n(no phases profiled — the command ran no day simulations)")
    if ledgering and code == 0:
        _record_run(args, argv, hub, duration_s)
    return code
