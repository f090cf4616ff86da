"""Scenario files: one sectioned text file describes one complete experiment.

Format (values holding expressions are double-quoted)::

    [domain]
    lower = 0, 0
    upper = 1, 1
    n = 64, 64

    [operator]
    d = 2
    m = 2
    q.11 = "1"
    a.12.21 = "x1 * x2"     ; block A^{hk}, entry (i, j) as a.hk.ij
    b.1.12 = "0.5"          ; B^h entry (i, j) as b.h.ij
    c.2.11 = "-0.5"
    v.11 = "4"
    w.12 = "0"

    [hypotheses]
    mode = fixed_gamma      ; or refined / kernel
    gamma = 1
    Cgamma = 1

    [run]
    p = 2, 4
    t_final = 0.5
    dt = 1e-4
    samples = 50
    scheme = implicit_euler
    seed = 1234

The coefficient keys derive from ``coefficients.BLOCKS``: the lowercase block
name, then one dot-separated group of 1-based digits per index group.
``entry_key`` and ``parse_key`` are the two directions of that grammar; one
digit per index limits d and m to 9.  Keys that the parser does not read are
rejected, and ``[hypotheses]`` holds only ``mode`` and that mode's parameters
(``hypotheses.MODE_PARAMS``).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import (BLOCKS, BoxDomain, CoefficientSystem, block_shape,
                           expr_matrix)
from .evolution import SCHEMES
from .expressions import ExprSyntaxError, const, parse_expr, print_expr
from .hypotheses import MODE_PARAMS, EstimateMode

# the largest d and m: a key holds one digit per index
MAX_INDEX = 9


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    name: str
    system: CoefficientSystem
    grid: BoxDomain
    mode: EstimateMode
    p_list: list
    t_final: float = 0.5
    dt: float = 1e-4
    n_samples: int = 20
    scheme: str = "implicit_euler"
    seed: int = 0
    closed_forms: dict = field(default_factory=dict)


def _floats(raw: str) -> list:
    return [float(x) for x in raw.replace(",", " ").split()]


def parse_p_list(raw: str) -> list:
    """Exponents from a comma list such as ``2, 4, inf``; each must exceed 1
    (inf is allowed)."""
    ps = [float(x) for x in raw.split(",")]
    if not all(p > 1 for p in ps):
        raise ScenarioError(f"p must exceed 1, got {raw!r}")
    return ps


def _get(cfg, section, key, where, cast=str, default=None, required=False):
    try:
        raw = cfg.get(section, key)
    except (configparser.NoSectionError, configparser.NoOptionError):
        if required:
            raise ScenarioError(f"{where}: missing [{section}] {key}") from None
        return default
    try:
        return cast(raw)
    except ValueError as err:
        raise ScenarioError(f"{where}: bad value for [{section}] {key}: {err}") from None


def _check_keys(cfg, section, known, where):
    """Reject a key of ``section`` that is not in ``known``."""
    for key in cfg.options(section) if cfg.has_section(section) else ():
        if key not in known:
            raise ScenarioError(f"{where}: [{section}] {key}: unrecognized key "
                                f"(expected one of {', '.join(known)})")


def _unquote(raw: str, where: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"':
        return raw[1:-1]
    raise ScenarioError(f"{where}: expression values must be double-quoted, got {raw!r}")


def _expr(raw: str, d: int, where: str):
    try:
        return parse_expr(_unquote(raw, where), dim=d)
    except ExprSyntaxError as err:
        raise ScenarioError(f"{where}: {err}") from None


def entry_key(block: str, index: tuple) -> str:
    """Scenario key of entry ``index`` (0-based) of ``block``: the lowercase
    block name, then one dot-separated group of 1-based digits per index
    group of ``BLOCKS[block]``, e.g. a.12.21 for A[0][1][1][0]."""
    if any(i >= MAX_INDEX for i in index):
        raise ValueError(f"{block} index {tuple(i + 1 for i in index)} has an "
                         f"entry above {MAX_INDEX}, which a scenario key cannot hold")
    digits = iter(index)
    return ".".join([block.lower()] + [
        "".join(str(next(digits) + 1) for _ in group)
        for group in BLOCKS[block]])


def parse_key(key: str):
    """(block, 0-based index) named by a coefficient key, the inverse of
    ``entry_key``; None if ``key`` is not one."""
    head, *groups = key.split(".")
    block = head.upper()
    if (head != block.lower() or block not in BLOCKS
            or [len(g) for g in groups] != [len(g) for g in BLOCKS[block]]
            or not all(g.isdecimal() for g in groups)):
        return None
    return block, tuple(int(c) - 1 for g in groups for c in g)


def parse_scenario(path, name: str | None = None) -> Scenario:
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cfg.optionxform = str
    try:
        read = cfg.read(path)
    except configparser.Error as err:  # its message names the file and line
        raise ScenarioError(" ".join(str(err).split())) from None
    if not read:
        raise ScenarioError(f"cannot read scenario file {path}")
    where = str(path)
    _check_keys(cfg, "domain", ("lower", "upper", "n"), where)
    _check_keys(cfg, "run", ("name", "p", "t_final", "dt", "samples",
                             "scheme", "seed"), where)

    d = _get(cfg, "operator", "d", where, int, required=True)
    m = _get(cfg, "operator", "m", where, int, required=True)
    for key, value in (("d", d), ("m", m)):
        if value > MAX_INDEX:
            raise ScenarioError(f"{where}: [operator] {key} must be at most "
                                f"{MAX_INDEX}, got {value}")
    lower = _get(cfg, "domain", "lower", where, _floats, required=True)
    upper = _get(cfg, "domain", "upper", where, _floats, required=True)
    n = _get(cfg, "domain", "n", where, lambda s: [int(x) for x in _floats(s)],
             required=True)
    try:
        grid = BoxDomain(lower, upper, n)
    except ValueError as err:
        raise ScenarioError(f"{where}: [domain]: {err}") from None
    if grid.d != d:
        raise ScenarioError(f"{where}: [domain] dimension {grid.d} != operator d = {d}")
    if m < 1:
        raise ScenarioError(f"{where}: [operator] m must be at least 1, got {m}")

    zero = const(0.0)
    blocks = {block: np.full(block_shape(block, d, m), zero, dtype=object)
              for block in ("Q", "V")}
    for key, raw in cfg.items("operator"):
        if key in ("d", "m"):
            continue
        loc = f"{where}: [operator] {key}"
        parsed = parse_key(key)
        if parsed is None:
            raise ScenarioError(f"{loc}: unrecognized coefficient key")
        block, index = parsed
        shape = block_shape(block, d, m)
        if not all(0 <= i < size for i, size in zip(index, shape)):
            raise ScenarioError(f"{loc}: index out of range")
        if block not in blocks:
            blocks[block] = np.full(shape, zero, dtype=object)
        blocks[block][index] = _expr(raw, d, loc)
    system = CoefficientSystem(d=d, m=m, **{
        block: expr_matrix(arr.tolist()) for block, arr in blocks.items()})

    kind = _get(cfg, "hypotheses", "mode", where, str, required=True)
    # a parameter absent from the file keeps its EstimateMode default
    params = MODE_PARAMS.get(kind, ())
    try:
        mode = EstimateMode(kind=kind, **{
            key: _get(cfg, "hypotheses", key, where, float)
            for key in params if cfg.has_option("hypotheses", key)})
    except ValueError as err:
        raise ScenarioError(f"{where}: [hypotheses]: {err}") from None
    _check_keys(cfg, "hypotheses", ("mode", *params), where)

    seed = _get(cfg, "run", "seed", where, int, required=True)
    if seed < 0:
        raise ScenarioError(
            f"{where}: [run] seed must be non-negative, got {seed}")
    n_samples = _get(cfg, "run", "samples", where, int, 20)
    if n_samples < 1:
        raise ScenarioError(
            f"{where}: [run] samples must be at least 1, got {n_samples}")
    scheme = _get(cfg, "run", "scheme", where, str, "implicit_euler")
    if scheme not in SCHEMES:
        raise ScenarioError(f"{where}: [run] scheme must be one of "
                            f"{', '.join(SCHEMES)}, got {scheme!r}")
    return Scenario(
        name=name or _get(cfg, "run", "name", where, str, str(path)),
        system=system, grid=grid, mode=mode,
        p_list=_get(cfg, "run", "p", where, parse_p_list, [2.0]),
        t_final=_get(cfg, "run", "t_final", where, float, 0.5),
        dt=_get(cfg, "run", "dt", where, float, 1e-4),
        n_samples=n_samples,
        scheme=scheme,
        seed=seed,
    )


def scenario_to_text(s: Scenario) -> str:
    """Serialize a scenario back to the sectioned text format."""
    lines = ["[domain]"]
    lines.append("lower = " + ", ".join(repr(x) for x in s.grid.lower))
    lines.append("upper = " + ", ".join(repr(x) for x in s.grid.upper))
    lines.append("n = " + ", ".join(str(x) for x in s.grid.n))
    lines += ["", "[operator]", f"d = {s.system.d}", f"m = {s.system.m}"]

    for block in BLOCKS:
        for index, expr in s.system.entries(block):
            txt = print_expr(expr)
            if txt != "0.0":
                lines.append(f'{entry_key(block, index)} = "{txt}"')

    lines += ["", "[hypotheses]", f"mode = {s.mode.kind}"]
    for key in MODE_PARAMS[s.mode.kind]:
        value = getattr(s.mode, key)
        if value is not None:
            lines.append(f"{key} = {value!r}")

    lines += [
        "", "[run]",
        f"name = {s.name}",
        "p = " + ", ".join("inf" if math.isinf(p) else repr(p) for p in s.p_list),
        f"t_final = {s.t_final!r}",
        f"dt = {s.dt!r}",
        f"samples = {s.n_samples}",
        f"scheme = {s.scheme}",
        f"seed = {s.seed}",
    ]
    return "\n".join(lines) + "\n"
