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
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field

from .coefficients import BoxDomain, CoefficientSystem
from .expressions import ExprSyntaxError, const, parse_expr, print_expr
from .hypotheses import EstimateMode


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


def parse_scenario(path, name: str | None = None) -> Scenario:
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cfg.optionxform = str
    read = cfg.read(path)
    if not read:
        raise ScenarioError(f"cannot read scenario file {path}")
    where = str(path)

    d = _get(cfg, "operator", "d", where, int, required=True)
    m = _get(cfg, "operator", "m", where, int, required=True)
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

    zero = const(0.0)
    Q = [[zero] * d for _ in range(d)]
    V = [[zero] * m for _ in range(m)]
    W = [[zero] * m for _ in range(m)]
    A = [[[ [zero] * m for _ in range(m)] for _ in range(d)] for _ in range(d)]
    B = [[[zero] * m for _ in range(m)] for _ in range(d)]
    C = [[[zero] * m for _ in range(m)] for _ in range(d)]
    seen_a = seen_b = seen_c = seen_w = False

    for key, raw in cfg.items("operator"):
        if key in ("d", "m"):
            continue
        loc = f"{where}: [operator] {key}"
        mq = re.fullmatch(r"q\.(\d)(\d)", key)
        ma = re.fullmatch(r"a\.(\d)(\d)\.(\d)(\d)", key)
        mbc = re.fullmatch(r"([bc])\.(\d)\.(\d)(\d)", key)
        mvw = re.fullmatch(r"([vw])\.(\d)(\d)", key)
        if mq:
            h, k = (int(x) for x in mq.groups())
            if not (1 <= h <= d and 1 <= k <= d):
                raise ScenarioError(f"{loc}: index out of range")
            Q[h - 1][k - 1] = _expr(raw, d, loc)
        elif ma:
            h, k, i, j = (int(x) for x in ma.groups())
            if not (1 <= h <= d and 1 <= k <= d and 1 <= i <= m and 1 <= j <= m):
                raise ScenarioError(f"{loc}: index out of range")
            A[h - 1][k - 1][i - 1][j - 1] = _expr(raw, d, loc)
            seen_a = True
        elif mbc:
            which, h, i, j = mbc.group(1), *(int(x) for x in mbc.groups()[1:])
            if not (1 <= h <= d and 1 <= i <= m and 1 <= j <= m):
                raise ScenarioError(f"{loc}: index out of range")
            target = B if which == "b" else C
            target[h - 1][i - 1][j - 1] = _expr(raw, d, loc)
            if which == "b":
                seen_b = True
            else:
                seen_c = True
        elif mvw:
            which, i, j = mvw.group(1), int(mvw.group(2)), int(mvw.group(3))
            if not (1 <= i <= m and 1 <= j <= m):
                raise ScenarioError(f"{loc}: index out of range")
            (V if which == "v" else W)[i - 1][j - 1] = _expr(raw, d, loc)
            if which == "w":
                seen_w = True
        else:
            raise ScenarioError(f"{loc}: unrecognized coefficient key")

    def freeze2(mat):
        return tuple(tuple(row) for row in mat)

    system = CoefficientSystem(
        d=d, m=m,
        Q=freeze2(Q), V=freeze2(V),
        A=tuple(tuple(freeze2(blk) for blk in row) for row in A) if seen_a else None,
        B=tuple(freeze2(blk) for blk in B) if seen_b else None,
        C=tuple(freeze2(blk) for blk in C) if seen_c else None,
        W=freeze2(W) if seen_w else None,
    )

    kind = _get(cfg, "hypotheses", "mode", where, str, required=True)
    try:
        mode = EstimateMode(
            kind=kind,
            gamma=_get(cfg, "hypotheses", "gamma", where, float, 1.0),
            Cgamma=_get(cfg, "hypotheses", "Cgamma", where, float, 1.0),
            a=_get(cfg, "hypotheses", "a", where, float, 0.25),
            b=_get(cfg, "hypotheses", "b", where, float, None),
            beta=_get(cfg, "hypotheses", "beta", where, float, 0.0),
            c=_get(cfg, "hypotheses", "c", where, float, 1.0),
        )
    except ValueError as err:
        raise ScenarioError(f"{where}: [hypotheses]: {err}") from None

    def plist(raw):
        return [math.inf if x.strip() in ("inf", "infinity") else float(x)
                for x in raw.split(",")]

    seed = _get(cfg, "run", "seed", where, int, required=True)
    return Scenario(
        name=name or _get(cfg, "run", "name", where, str, str(path)),
        system=system, grid=grid, mode=mode,
        p_list=_get(cfg, "run", "p", where, plist, [2.0]),
        t_final=_get(cfg, "run", "t_final", where, float, 0.5),
        dt=_get(cfg, "run", "dt", where, float, 1e-4),
        n_samples=_get(cfg, "run", "samples", where, int, 20),
        scheme=_get(cfg, "run", "scheme", where, str, "implicit_euler"),
        seed=seed,
    )


def scenario_to_text(s: Scenario) -> str:
    """Serialize a scenario back to the sectioned text format."""
    lines = ["[domain]"]
    lines.append("lower = " + ", ".join(repr(x) for x in s.grid.lower))
    lines.append("upper = " + ", ".join(repr(x) for x in s.grid.upper))
    lines.append("n = " + ", ".join(str(x) for x in s.grid.n))
    lines += ["", "[operator]", f"d = {s.system.d}", f"m = {s.system.m}"]

    def emit(prefix, expr):
        txt = print_expr(expr)
        if txt != "0.0":
            lines.append(f'{prefix} = "{txt}"')

    d, m = s.system.d, s.system.m
    for h in range(d):
        for k in range(d):
            emit(f"q.{h + 1}{k + 1}", s.system.Q[h][k])
    if s.system.A is not None:
        for h in range(d):
            for k in range(d):
                for i in range(m):
                    for j in range(m):
                        emit(f"a.{h + 1}{k + 1}.{i + 1}{j + 1}", s.system.A[h][k][i][j])
    for nameB, blocks in (("b", s.system.B), ("c", s.system.C)):
        if blocks is None:
            continue
        for h in range(d):
            for i in range(m):
                for j in range(m):
                    emit(f"{nameB}.{h + 1}.{i + 1}{j + 1}", blocks[h][i][j])
    for i in range(m):
        for j in range(m):
            emit(f"v.{i + 1}{j + 1}", s.system.V[i][j])
    if s.system.W is not None:
        for i in range(m):
            for j in range(m):
                emit(f"w.{i + 1}{j + 1}", s.system.W[i][j])

    lines += ["", "[hypotheses]", f"mode = {s.mode.kind}"]
    if s.mode.kind == "fixed_gamma":
        lines += [f"gamma = {s.mode.gamma!r}", f"Cgamma = {s.mode.Cgamma!r}"]
    elif s.mode.kind == "refined":
        lines.append(f"a = {s.mode.a!r}")
        if s.mode.b is not None:
            lines.append(f"b = {s.mode.b!r}")
    else:
        lines += [f"beta = {s.mode.beta!r}", f"c = {s.mode.c!r}"]

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
