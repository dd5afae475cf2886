"""Batch experiment runner.

Subcommands: rabi | zeno | estimate | channel | chain.  Parameters come
from flags or a JSON config file (flags win, unknown keys are
rejected).  Every artifact embeds {seed, config hash, version} and
identical (config, seed) pairs produce byte-identical files.  Exit
codes: 0 success, 1 numerical failure, 2 configuration error.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, bloch, constants
from .bloch import DetectionModel, DrivePulse, rabi_excitation_probability, ramsey_probability
from .channels import (ChannelInvalidError, affine_shift, channel_from_spec, compose,
                       depolarizing, tomography_exact, tomography_sampled)
from .estimation import mean_fidelity_experiment
from .ionchain import (ConvergenceError, NotAMinimumError, TrapConfig,
                       length_scale, required_gradient, spin_spin_couplings)
from .zeno import (corrected_survival, run_length_distribution, run_length_ratio,
                   simulate_alternating, simulate_fractionated_pi, survival_probability)

# ArithmeticError covers overflow, FloatingPointError and estimation's DegenerateUpdateError
NUMERICAL_ERRORS = (ConvergenceError, NotAMinimumError, ChannelInvalidError,
                    ArithmeticError, np.linalg.LinAlgError)
MAX_POINTS = 10**6          # rabi scan points; a full scan writes ~40 MB of CSV
INT64_MAX = 2**63 - 1
_SEEDS, _COUNTS, _NON_NEGATIVE = (0, INT64_MAX), (1, INT64_MAX), (0.0, sys.float_info.max)
_UNBOUNDED = {int: (-INT64_MAX - 1, INT64_MAX), float: (-sys.float_info.max, sys.float_info.max)}

_STRATEGY_ALIASES = {"self": "self_learning", "random": "random", "fixed": "fixed_axes"}


class ConfigError(ValueError):
    pass


# flag name -> (type, default, help[, accepted]).  A None default is unset: only --spec is
# required, and the photon-count flags go all three or none.  accepted is a (low, high) range
# for numbers or the allowed names for text; else an int must fit int64, a float be finite
_SPECS = {
    "rabi": {
        "seed": (int, 0, "RNG seed (unused; kept for uniform artifacts)", _SEEDS),
        "rabi_khz": (float, 2.9165, "Rabi frequency Omega/2pi in kHz", _NON_NEGATIVE),
        "detuning_hz": (float, 0.0, "detuning delta/2pi in Hz"),
        "tmax_ms": (float, 2.0, "scan end time in ms", _NON_NEGATIVE),
        "points": (int, 200, "number of scan points", (1, MAX_POINTS)),
        "ramsey": (bool, False, "scan Ramsey precession time instead of pulse length"),
    },
    "zeno": {
        "seed": (int, 0, "RNG seed", _SEEDS),
        "mode": (str, "survival", "protocol", ("survival", "runlength")),
        "fractions": (str, "1,2,3,4,10", "comma-separated N values (survival mode)"),
        "sequences": (int, 2000, "sequences per N (survival mode)", _COUNTS),
        "theta_total": (float, math.pi, "total pulse area in rad"),
        "prep_efficiency": (float, 1.0, "probability of correct |0> preparation",
                            (math.ulp(0.0), 1.0)),
        "eta0": (float, 1.0, "probability of reading |0> as off", (0.5, 1.0)),
        "eta1": (float, 1.0, "probability of reading |1> as on", (0.5, 1.0)),
        "on_mean": (float, None, "Poisson mean photon count for on (with off_mean, threshold)",
                    (0.0, bloch.MAX_COUNT_MEAN)),
        "off_mean": (float, None, "Poisson mean photon count for off",
                     (0.0, bloch.MAX_COUNT_MEAN)),
        "threshold": (int, None, "count cutoff: on means count > threshold", (0, INT64_MAX)),
        "theta": (float, math.pi / 5.0, "drive area per pair in rad (runlength mode)"),
        "pairs": (int, 10000, "drive/probe pairs (runlength mode)", _COUNTS),
        "qmax": (int, 10, "largest run length reported (runlength mode)", _COUNTS),
    },
    "estimate": {
        "seed": (int, 0, "RNG seed", _SEEDS),
        "strategy": (str, "self", "measurement strategy", tuple(_STRATEGY_ALIASES)),
        "n": (int, 12, "measurements per state", _COUNTS),
        "states": (int, 1000, "number of random true states", _COUNTS),
        "lambda": (float, 0.0, "depolarization strength", (0, 0.5)),
        "delta_eta": (float, 0.0, "detection bias (eta1-eta0)/2", (-0.25, 0.25)),
    },
    "channel": {
        "seed": (int, 0, "RNG seed", _SEEDS),
        "spec": (str, None, "path to channel spec JSON (required)"),
        "shots": (int, 0, "shots per tomography setting; 0 = exact", (0, INT64_MAX)),
    },
    "chain": {
        "seed": (int, 0, "RNG seed (unused; kept for uniform artifacts)", _SEEDS),
        "species": (str, "yb171", "ion species key", tuple(constants.SPECIES_REGISTRY)),
        "nu1_khz": (float, 100.0, "COM mode frequency nu1/2pi in kHz",
                    (math.ulp(0.0), sys.float_info.max)),
        "n": (int, 10, "number of ions", _COUNTS),
        "gradient": (float, 25.0, "axial field gradient in T/m", _NON_NEGATIVE),
        "b0": (float, 0.0, "offset field in T (used when weak-field limit is off)"),
        "no_weak_field": (bool, False, "evaluate the chi factor at the local field"),
        "table": (bool, False, "also print the J table in the standard layout"),
    },
}

# per command: (when, the condition on the merged parameters, the keys the
# command does not read while it holds); a key given then is rejected
_UNREAD = {
    "zeno": [
        ("--mode survival", lambda p: p["mode"] == "survival", {"theta", "pairs", "qmax"}),
        ("--mode runlength", lambda p: p["mode"] == "runlength",
         {"fractions", "sequences", "theta_total", "prep_efficiency"}),
        ("with --on-mean/--off-mean/--threshold",
         lambda p: any(p[k] is not None for k in ("on_mean", "off_mean", "threshold")),
         {"eta0", "eta1"}),
    ],
    "chain": [("without --no-weak-field", lambda p: not p["no_weak_field"], {"b0"})],
}


def _config_value(name: str, typ, value):
    """A config file value of its flag's type: JSON integers for int,
    numbers for float, true/false for bool, strings for str."""
    if isinstance(value, bool) != (typ is bool) or not isinstance(
            value, (int, float) if typ is float else typ):
        raise ConfigError(f"config value {name!r} must be of type {typ.__name__}, got {value!r}")
    try:
        return typ(value)
    except OverflowError as exc:
        raise ConfigError(f"bad config value for {name!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionqsim",
        description="Trapped-ion qubit experiment simulations",
    )
    parser.add_argument("--version", action="version",
                        version=f"ionqsim {__version__} "
                                f"(constants: {constants.CONSTANTS_PROVENANCE})")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _SPECS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with parameter defaults (flags win)")
        p.add_argument("--out", type=str, default=None, help="output artifact path")
        for name, (typ, _default, helptext, *accepted) in spec.items():
            flag = "--" + name.replace("_", "-")
            if accepted:
                helptext += f"; accepted: {_accepted_text(typ, accepted[0])}"
            if typ is bool:
                p.add_argument(flag, action="store_const", const=True,
                               default=None, help=helptext)
            else:
                p.add_argument(flag, type=typ, default=None, help=helptext)
    return parser


def _accepted_text(typ, accepted) -> str:
    return " | ".join(accepted) if typ is str else f"[{accepted[0]!r}, {accepted[1]!r}]"


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:   # nesting too deep
        raise ConfigError(f"cannot read {what} {path}: {exc}")


def _merge_params(command: str, args: argparse.Namespace) -> dict:
    """Resolve parameters: command line > config file > defaults."""
    spec = _SPECS[command]
    from_file = {}
    if args.config is not None:
        from_file = _read_json(args.config, "config file")
        if not isinstance(from_file, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(from_file) - set(spec)
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    params, given = {}, set()
    for name, (typ, default, _help, *accepted) in spec.items():
        cli_value = getattr(args, name)
        if cli_value is not None:
            params[name] = cli_value
        elif name in from_file:
            params[name] = _config_value(name, typ, from_file[name])
        else:
            params[name] = default
            continue
        given.add(name)
        value, accepted = params[name], accepted[0] if accepted else _UNBOUNDED.get(typ)
        if typ is str and accepted and value not in accepted:
            raise ConfigError(f"{name!r} = {value!r}; choose from {_accepted_text(typ, accepted)}")
        if typ is not str and accepted and not accepted[0] <= value <= accepted[1]:
            # a float without a table range is out of it only as NaN or +-inf
            rule = ("be finite" if accepted is _UNBOUNDED[float]
                    else f"lie in {_accepted_text(typ, accepted)}")
            raise ConfigError(f"{name!r} must {rule}, got {value!r}")
    for when, holds, keys in _UNREAD.get(command, ()):
        if given & keys and holds(params):
            raise ConfigError(f"{command} {when} does not use {sorted(given & keys)}")
    return params


def _config_hash(command: str, params: dict) -> str:
    blob = json.dumps({"command": command, "params": params}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _meta(command: str, params: dict) -> dict:
    return {
        "seed": params.get("seed"),
        "config_hash": _config_hash(command, params),
        "version": __version__,
    }


def _emit_files(outputs) -> None:
    """Write every (path, text) pair, or none of them.

    Every path is opened before any is written, in append mode, so that a
    file that exists keeps its bytes until all are open.  When one cannot
    be opened, the files this call created are removed again.
    """
    handles, created = [], []
    try:
        for path, _text in outputs:
            existed = os.path.exists(path)
            handles.append(open(path, "a"))
            if not existed:
                created.append(path)
    except OSError as exc:
        for fh in handles:
            fh.close()
        for made in created:
            os.remove(made)
        raise ConfigError(f"cannot write {path}: {exc}")
    for fh, (_path, text) in zip(handles, outputs):
        with fh:
            fh.truncate(0)
            fh.write(text)


def _csv_text(meta: dict, columns: list, row_format: str, rows) -> str:
    # each row is row_format % row; a %d field truncates a float, so only int columns get it
    lines = [f"# {key}={meta[key]}" for key in ("seed", "config_hash", "version")]
    lines.append(",".join(columns))
    lines.extend(row_format % row for row in rows)
    return "\n".join([*lines, ""])        # the final newline without a copy of the text


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_rabi(params: dict, out) -> list:
    times = np.linspace(0.0, params["tmax_ms"] * 1e-3, params["points"])
    omega = 2.0 * math.pi * params["rabi_khz"] * 1e3
    delta = 2.0 * math.pi * params["detuning_hz"]
    # the flags are finite, so only the 2 pi (x 1e3) scaling can overflow
    if not math.isfinite(omega):
        raise OverflowError(f"Rabi frequency Omega = 2 pi x {params['rabi_khz']:g} kHz "
                            "overflows a float")
    if not math.isfinite(delta):
        raise OverflowError(f"detuning delta = 2 pi x {params['detuning_hz']:g} Hz "
                            "overflows a float")
    if params["ramsey"]:
        if omega <= 0:
            raise ConfigError("ramsey mode needs a positive Rabi frequency")
        half_pi = 0.5 * math.pi / omega
        if not math.isfinite(half_pi):
            raise OverflowError(f"pi/2 pulse length overflows a float (Omega = {omega:g} rad/s)")
        pulse = DrivePulse(rabi=omega, detuning=delta, duration=half_pi)
        column, p1 = "precession_time_s", ramsey_probability(pulse, times)
    else:
        column, p1 = "pulse_length_s", rabi_excitation_probability(omega, delta, times)
    rows = zip(times.tolist(), p1.tolist())
    return [(out, _csv_text(_meta("rabi", params), [column, "p1"], "%.17g,%.17g", rows))]


def _detection_from(params: dict) -> DetectionModel:
    counting = [params["on_mean"], params["off_mean"], params["threshold"]]
    if all(v is None for v in counting):
        return DetectionModel(params["eta0"], params["eta1"])
    if any(v is None for v in counting):
        raise ConfigError("--on-mean, --off-mean and --threshold must be given together")
    return DetectionModel.from_counts(*counting)


def _zeno_rows(params: dict):
    detection = _detection_from(params)
    if params["mode"] == "survival":
        try:
            fractions = [int(tok) for tok in params["fractions"].split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad fractions list: {exc}")
        if not fractions:
            raise ConfigError("fractions list is empty")
        losses = {"detection": detection, "prep_efficiency": params["prep_efficiency"]}
        for k, n in enumerate(fractions):
            raw, _records = simulate_fractionated_pi(n, params["sequences"], params["seed"] + k,
                                                     params["theta_total"], **losses)
            corrected = corrected_survival(raw, n, **losses)
            raw_stderr = math.sqrt(raw * (1.0 - raw) / params["sequences"])
            stderr = corrected_survival(raw_stderr, n, **losses)
            theory = survival_probability(params["theta_total"] / n, n)
            yield n, theory, corrected, stderr
    else:
        if params["qmax"] > params["pairs"] > 1:      # one result: no complete run, exit 1
            raise ConfigError(f"'qmax' = {params['qmax']} exceeds 'pairs' = {params['pairs']}: "
                              "no complete run is longer than the record")
        results = simulate_alternating(params["theta"], params["pairs"], seed=params["seed"],
                                       detection=detection)
        counts = run_length_distribution(results)
        for q in range(1, params["qmax"] + 1):
            ratio = run_length_ratio(counts, q)
            theory = survival_probability(params["theta"], q - 1)
            n_q, n_1 = counts.get(q, 0), counts[1]
            # U(1)/U(1) is exactly 1; for q > 1 the multinomial covariance terms
            # of the delta method cancel, leaving exactly 1/n_q + 1/n_1
            stderr = ratio * math.sqrt(1.0 / n_q + 1.0 / n_1) if q > 1 and n_q else 0.0
            yield q, theory, ratio, stderr


def _cmd_zeno(params: dict, out) -> list:
    return [(out, _csv_text(_meta("zeno", params), ["N_or_q", "theory", "simulated", "stderr"],
                            "%d,%.17g,%.17g,%.17g", _zeno_rows(params)))]


def _cmd_estimate(params: dict, out) -> list:
    kind = _STRATEGY_ALIASES[params["strategy"]]
    channel = compose(depolarizing(params["lambda"]),
                      affine_shift([0.0, 0.0, 2.0 * params["delta_eta"]]))
    if not channel.is_physical():
        raise ConfigError(f"lambda = {params['lambda']} and delta_eta = {params['delta_eta']} "
                          "push pure states outside the Bloch ball (need |delta_eta| <= lambda)")
    if out is not None and os.path.splitext(out)[0] + ".json" == out:
        raise ConfigError(f"--out {out} is the path of its own summary sidecar; "
                          "give it another extension, such as .csv")
    mean, stderr, fidelities = mean_fidelity_experiment(
        params["states"], params["n"], kind, channel, seed=params["seed"])
    meta = _meta("estimate", params)
    summary = {"meta": meta, "mean": mean, "stderr": stderr, "strategy": kind,
               "N": params["n"], "states": params["states"]}
    summary_text = _json_text(summary)
    if out is None:
        return [(None, summary_text)]
    return [(out, _csv_text(meta, ["state_index", "fidelity"], "%d,%.17g",
                            enumerate(fidelities.tolist()))),
            (os.path.splitext(out)[0] + ".json", summary_text), (None, summary_text)]


def _cmd_channel(params: dict, out) -> list:
    if params["spec"] is None:
        raise ConfigError("channel requires --spec pointing to a JSON file")
    spec = _read_json(params["spec"], "channel spec")
    try:
        channel = channel_from_spec(spec)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(str(exc))
    if params["shots"] > 0:
        estimate, m_err, v_err = tomography_sampled(channel, params["shots"], seed=params["seed"])
    else:
        estimate = tomography_exact(channel)
        m_err, v_err = np.zeros((3, 3)), np.zeros(3)
    payload = {
        "meta": _meta("channel", params),
        "m": estimate.m.tolist(),
        "v": estimate.v.tolist(),
        "m_stderr": m_err.tolist(),
        "v_stderr": v_err.tolist(),
    }
    return [(out, _json_text(payload))]


def _format_j_table(j_hz: np.ndarray) -> str:
    n = j_hz.shape[0]
    header = ["   i"] + [f"J_i{j + 1}".rjust(9) for j in range(n - 1)]
    lines = ["".join(header)]
    for i in range(n):
        cells = [f"{i + 1:4d}"]
        for j in range(n - 1):
            cells.append(f"{j_hz[i, j]:9.2f}" if j < i else " " * 9)
        lines.append("".join(cells))
    return "\n".join(lines)


def _cmd_chain(params: dict, out) -> list:
    species = constants.SPECIES_REGISTRY[params["species"]]
    nu1 = 2.0 * math.pi * params["nu1_khz"] * 1e3
    trap = TrapConfig(nu1=nu1, n_ions=params["n"], b=params["gradient"], b0=params["b0"])
    weak_field = not params["no_weak_field"]
    zeta = length_scale(species, nu1)                       # m, or OverflowError naming nu1
    modes, coupling = spin_spin_couplings(species, trap, weak_field=weak_field)
    payload = {
        "meta": _meta("chain", params),
        "species": species.name,
        "weak_field_limit": weak_field,
        "zeta": zeta,
        "positions_um": (modes.u * zeta * 1e6).tolist(),
        "mode_freqs_khz": (modes.nu / (2.0 * math.pi * 1e3)).tolist(),
        "required_gradient": (                              # T/m
            required_gradient(species, nu1, trap.n_ions) if trap.n_ions >= 2 else None),
        "J_hz": coupling.in_hz().tolist(),
    }
    outputs = [(out, _json_text(payload))]
    if params["table"]:
        outputs.append((None, _format_j_table(coupling.in_hz()) + "\n"))
    return outputs


_DISPATCH = {
    "rabi": _cmd_rabi,
    "zeno": _cmd_zeno,
    "estimate": _cmd_estimate,
    "channel": _cmd_channel,
    "chain": _cmd_chain,
}


def run(argv) -> int:
    """Parse argv, execute one subcommand, write artifacts; returns exit code.

    Each subcommand returns its outputs as (path, text) pairs, path None
    for stdout.  Every file is written, or none (`_emit_files`), before
    anything goes to stdout.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        params = _merge_params(args.command, args)
        outputs = _DISPATCH[args.command](params, args.out)
        _emit_files([(path, text) for path, text in outputs if path is not None])
    # LinAlgError and ChannelInvalidError are ValueErrors too, so this comes first
    except NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    sys.stdout.write("".join(text for path, text in outputs if path is None))
    return 0


def main() -> None:
    """Process entry point: run(sys.argv[1:]), then exit with its code.

    The process ends here, and CPython's collections at interpreter exit
    would walk the ~22 000 objects numpy and ionqsim leave tracked, about
    25 ms of a ~215 ms call.  gc.freeze() moves them to the permanent
    generation, which those collections skip; the command itself runs
    with the collector as it was.
    """
    code = run(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
