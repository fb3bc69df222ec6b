"""Command-line entry point.

Subcommands:
  run           execute a scenario (preset name or .ini file) for one or
                more seeds and write summary / trajectory / trace CSVs
  design        print the state-feedback gain, closed-loop eigenvalues,
                and decay rate as CSV
  energy-model  emit the analytic duty-cycle sweeps (event-epoch frequency
                and epoch-duration tables)
  validate      structural checks on trigger parameters and slot plans

Exit codes: 0 success, 2 scenario/configuration error, 3 numeric
divergence, 4 controller synthesis failure.
"""

from __future__ import annotations

import argparse
import configparser
import io
import sys
from collections.abc import Sequence
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import control, harness, protocol, triggers
from .harness import PRESET_NAMES, Scenario, ScenarioError, scenario_preset
from .plant import NonFiniteState
from .pools import DEFAULT_POOLS
from .profiles import EPOCH_SWEEP_EVENTS, TESTBEDS, epoch_sweep_row, make_epoch_config
from .protocol import WCB_E, WCB_P

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_DIVERGED = 3
EXIT_DESIGN = 4

_KEYS = {f.metadata["ini"]: f for f in fields(Scenario) if f.metadata["ini"]}
_PARAMS_FILE = ("trigger", "params_file")


def scenario_to_ini(scenario: Scenario) -> str:
    cp = configparser.ConfigParser(interpolation=None)
    for (section, key), f in _KEYS.items():
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, f.metadata["kind"].fmt(getattr(scenario, f.name)))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def scenario_from_ini(text: str, overrides: Sequence[str] = ()) -> Scenario:
    """The validated scenario of an INI text, with `section.key=value`
    overrides replacing or adding keys; every other value is kept as written."""
    cp = configparser.ConfigParser(interpolation=None)   # a '%' is a plain character
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse scenario file: {exc}")
    for item in overrides:
        try:
            key, value = item.split("=", 1)
            section, option = key.split(".", 1)
        except ValueError:
            raise ScenarioError(f"override must look like section.key=value: {item!r}")
        if (section, option) not in _KEYS and (section, option) != _PARAMS_FILE:
            raise ScenarioError(f"unknown override key {key!r}")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, option, value)
    values = {}
    for section in cp.sections():
        for key, value in cp.items(section):
            if (section, key) == _PARAMS_FILE:
                continue
            if (section, key) not in _KEYS:
                raise ScenarioError(f"unknown scenario key [{section}] {key}")
            f = _KEYS[(section, key)]
            try:
                values[f.name] = f.metadata["kind"].parse(value)
            except ValueError:
                raise ScenarioError(f"bad value for [{section}] {key}: {value!r} "
                                    f"(must be {f.metadata['kind'].what})") from None
    if cp.has_option(*_PARAMS_FILE):
        path = cp.get(*_PARAMS_FILE)
        try:
            values["trigger_params"] = triggers.load_params(path)
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"cannot load trigger parameters from {path!r}: {exc}")
    scenario = Scenario(**values)
    scenario.validate()
    return scenario


def load_scenario(spec: str, overrides: Sequence[str]) -> Scenario:
    path = Path(spec)
    if path.is_file():
        text = path.read_text()
    elif spec in PRESET_NAMES:
        text = scenario_to_ini(scenario_preset(spec))
    else:
        raise ScenarioError(
            f"{spec!r} is neither a scenario file nor one of the presets "
            f"({', '.join(PRESET_NAMES)})")
    return scenario_from_ini(text, overrides)


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    try:
        for token in spec.split(","):
            token = token.strip()
            if ".." in token:
                lo, hi = token.split("..")
                seeds.extend(range(int(lo), int(hi) + 1))
            elif token:
                seeds.append(int(token))
    except ValueError:
        raise ScenarioError(f"seeds must look like 1..8 or 3,5,9: {spec!r}") from None
    if not seeds:
        raise ScenarioError(f"no seeds in {spec!r}")
    if min(seeds) < 0:
        raise ScenarioError(f"seeds must be >= 0: {spec!r}")
    return seeds


def output_dir(spec: str) -> Path:
    """The directory `--out` names; ScenarioError if a file stands in its way."""
    out = Path(spec)
    if any(path.exists() and not path.is_dir() for path in (out, *out.parents)):
        raise ScenarioError(f"--out {spec!r} is a file or lies inside one")
    return out


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario, args.override)
        seeds = [scenario.seed] if args.seeds is None else parse_seeds(args.seeds)
        out = output_dir(args.out)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO

    reports = []
    try:
        for seed in seeds:
            reports.append(harness.run_experiment(replace(scenario, seed=seed)))
    except NonFiniteState as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "summary.csv", "w") as fh:
        harness.write_summary_csv(reports, fh)
    for rep in reports:
        variant = harness.VARIANT.fmt(rep.scenario.variant)
        tag = f"{rep.scenario.testbed}_{variant}_seed{rep.scenario.seed}"
        with open(out / f"trajectory_{tag}.csv", "w") as fh:
            harness.write_trajectory_csv(rep, fh)
        with open(out / f"trace_{tag}.csv", "w") as fh:
            harness.write_trace_csv(rep, fh)
    for rep in reports:
        row = rep.summary_row()
        print(",".join(str(row[c]) for c in harness.SUMMARY_COLUMNS))
    return EXIT_OK


def cmd_design(args) -> int:
    try:
        model = control.build_state_space(DEFAULT_POOLS, args.delay_approx)
        weights = control.DEFAULT_WEIGHTS
        gain = control.lqr_gain(model, weights)
    except control.NoStabilizingSolution as exc:
        print(f"controller synthesis failed: {exc}", file=sys.stderr)
        return EXIT_DESIGN
    k_eff = gain.effective
    print("# gain matrix K (u = K x), one row per gate")
    for row in k_eff:
        print(",".join(repr(float(v)) for v in row))
    eigs = np.linalg.eigvals(model.A + model.B @ k_eff)
    print("# closed-loop eigenvalues (re, im)")
    for ev in sorted(eigs, key=lambda z: z.real):
        print(f"{float(ev.real)!r},{float(ev.imag)!r}")
    print("# decay rate [1/min]")
    print(repr(gain.rho))
    return EXIT_OK


def parse_events(spec: str) -> dict[int, tuple[int, int]]:
    """`DUR=COUNT,...` as {epoch duration [s]: (event epochs, epochs per day)}."""
    events = {}
    for item in filter(None, (part.strip() for part in spec.split(","))):
        try:
            dur, count = (int(v) for v in item.split("="))
        except ValueError:
            raise ScenarioError(f"events must look like DUR=COUNT,...: {item!r}") from None
        epochs = round(86400 / dur) if dur > 0 else 0
        if epochs < 1:
            raise ScenarioError(f"epoch duration must be positive and give at least one "
                                f"epoch per day: {item!r}")
        if not 0 <= count <= epochs:
            raise ScenarioError(f"event count must be 0..{epochs}, the epochs in a day "
                                f"of {dur} s epochs: {item!r}")
        events[dur] = (count, epochs)
    return events


def cmd_energy_model(args) -> int:
    try:
        if args.profile not in TESTBEDS:
            raise ScenarioError(f"unknown profile {args.profile!r}")
        events = {**EPOCH_SWEEP_EVENTS, **parse_events(args.events)}
        out = output_dir(args.out)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    profile = TESTBEDS[args.profile]
    out.mkdir(parents=True, exist_ok=True)

    cfg = make_epoch_config(profile, variant=WCB_E, t_epoch_s=60.0)
    with open(out / f"dc_vs_event_rate_{args.profile}.csv", "w") as fh:
        fh.write("F_ev,DC_etc_pct,DC_periodic_pct,savings_pct\n")
        for k in range(0, 101):
            f_ev = k / 100.0
            _, _, dc_e, dc_p = protocol.analytic_ton(cfg, f_ev)
            fh.write(f"{f_ev:.2f},{dc_e!r},{dc_p!r},{(1 - dc_e / dc_p) * 100.0!r}\n")

    with open(out / f"dc_vs_epoch_duration_{args.profile}.csv", "w") as fh:
        fh.write("T_epoch_s,events,epochs,F_ev_pct,DC_etc_pct,DC_periodic_pct,savings_pct\n")
        for dur in sorted(events, reverse=True):
            n_ev, n_ep = events[dur]
            row = (dur, n_ev, n_ep, *epoch_sweep_row(profile, dur, n_ev, n_ep))
            fh.write(",".join(map(repr, row)) + "\n")
    print(f"wrote duty-cycle sweeps to {out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        scenario = load_scenario(args.scenario, args.override)
        for variant in (WCB_E, WCB_P):
            replace(scenario, variant=variant).validate()
    except ScenarioError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    print("ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wcbsim", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario for one or more seeds")
    p_run.add_argument("--scenario", required=True,
                       help="preset name or scenario .ini file")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seeds", help="e.g. 1..8 or 3,5,9 (default: the scenario's seed)")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")
    p_run.set_defaults(func=cmd_run)

    p_design = sub.add_parser("design", help="print gain, eigenvalues, decay rate")
    p_design.add_argument("--delay-approx", choices=("pade", "lag"), default="lag")
    p_design.set_defaults(func=cmd_design)

    p_energy = sub.add_parser("energy-model", help="analytic duty-cycle sweeps")
    p_energy.add_argument("--profile", default="hall")
    p_energy.add_argument("--out", default="out")
    p_energy.add_argument("--events", default="",
                          metavar="DUR=COUNT,...",
                          help="override event counts per epoch duration")
    p_energy.set_defaults(func=cmd_energy_model)

    p_val = sub.add_parser("validate", help="check triggers and slot plans")
    p_val.add_argument("--scenario", default="dept_etc_noiseless")
    p_val.add_argument("--override", action="append", default=[])
    p_val.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
