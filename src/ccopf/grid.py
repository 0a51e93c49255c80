"""Grid case parsing and the deterministic DC feasibility description.

A case file (MATPOWER text layout, subset) is turned into a GridCase, from
which the DC linear algebra is built: the susceptance Laplacian and its
pseudo-inverse, the branch incidence matrix, and the balance matrix that
folds the slack injection back onto the other buses. The feasibility
polytope stacks branch angle limits and bus injection limits into a single
system W p <= b over full injection vectors in per-unit.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

_BUS_TYPE_CODES = {1: "load", 2: "generator", 3: "slack"}

# Relative eigenvalue cutoff for the Laplacian pseudo-inverse. A connected
# graph has exactly one zero mode; anything below cutoff*lambda_max is
# treated as that mode.
PINV_CUTOFF = 1e-9


class CaseError(ValueError):
    """Base class for case file problems."""


class CaseParseError(CaseError):
    """Malformed case text. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CaseValidationError(CaseError):
    """Structurally valid text describing an unusable grid."""


@dataclass(frozen=True)
class Bus:
    """Single bus: identifier, role, load, and nominal net injection in MW.

    p_nominal_mw is generation setpoint minus load, the operating point the
    uncertainty model perturbs.
    """

    id: int
    kind: str
    load_mw: float
    p_nominal_mw: float


@dataclass(frozen=True)
class Branch:
    """Branch with reactance in p.u. and angle-difference limit in rad.

    angle_limit is math.inf for unlimited branches (zero rating in the
    source file).
    """

    from_bus: int
    to_bus: int
    reactance: float
    angle_limit: float


@dataclass(frozen=True)
class Generator:
    bus: int
    p_min_mw: float
    p_max_mw: float
    cost: float  # $/MWh, linear coefficient


@dataclass(frozen=True)
class GridCase:
    """Parsed grid case.

    Invariants are enforced at construction: a finite positive base MVA,
    finite bus loads and nominal injections, exactly one slack bus, branch
    endpoints present in the bus table, finite positive reactances,
    finite generator limits and costs with p_min <= p_max, and a
    connected graph. parse_case rejects NaN and negative ratings.
    """

    name: str
    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]

    def __post_init__(self):
        if not 0 < self.base_mva < math.inf:
            raise CaseValidationError(f"base MVA must be finite and positive, got {self.base_mva}")
        for bus in self.buses:
            if not math.isfinite(bus.load_mw) or not math.isfinite(bus.p_nominal_mw):
                raise CaseValidationError(
                    f"bus {bus.id}: non-finite load {bus.load_mw} or nominal "
                    f"injection {bus.p_nominal_mw}"
                )
        ids = [bus.id for bus in self.buses]
        if len(set(ids)) != len(ids):
            raise CaseValidationError("duplicate bus ids in bus table")
        slack = [bus.id for bus in self.buses if bus.kind == "slack"]
        if len(slack) != 1:
            raise CaseValidationError(
                f"expected exactly one slack bus, found {len(slack)}: {slack}"
            )
        known = set(ids)
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise CaseValidationError(
                    f"branch {br.from_bus}-{br.to_bus} references a bus "
                    "absent from the bus table"
                )
            if not 0 < br.reactance < math.inf:
                raise CaseValidationError(
                    f"branch {br.from_bus}-{br.to_bus} has non-positive or "
                    f"non-finite reactance {br.reactance}"
                )
        for gen in self.generators:
            if gen.bus not in known:
                raise CaseValidationError(
                    f"generator at bus {gen.bus} absent from the bus table"
                )
            if not all(map(math.isfinite, (gen.p_min_mw, gen.p_max_mw, gen.cost))):
                raise CaseValidationError(
                    f"generator at bus {gen.bus}: non-finite limit or cost "
                    f"(p_min {gen.p_min_mw}, p_max {gen.p_max_mw}, cost {gen.cost})"
                )
            if gen.p_min_mw > gen.p_max_mw:
                raise CaseValidationError(
                    f"generator at bus {gen.bus}: p_min {gen.p_min_mw} "
                    f"exceeds p_max {gen.p_max_mw}"
                )
        self._check_connected()

    def _check_connected(self):
        # union-find over branches; every bus must join the slack component
        parent = list(range(len(self.buses)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for br in self.branches:
            ra, rb = find(self.index[br.from_bus]), find(self.index[br.to_bus])
            if ra != rb:
                parent[ra] = rb
        roots = {find(i) for i in range(len(self.buses))}
        if len(roots) != 1:
            raise CaseValidationError(
                f"grid is disconnected ({len(roots)} components)"
            )

    @cached_property
    def index(self) -> dict[int, int]:
        """Bus id -> position in the bus table."""
        return {bus.id: i for i, bus in enumerate(self.buses)}

    @cached_property
    def slack_index(self) -> int:
        return next(i for i, bus in enumerate(self.buses) if bus.kind == "slack")

    @property
    def n(self) -> int:
        return len(self.buses)

    @property
    def m(self) -> int:
        return len(self.branches)

    @cached_property
    def nominal_injection(self) -> np.ndarray:
        """Nominal net injections in p.u., bus-table order."""
        p = np.array([bus.p_nominal_mw for bus in self.buses]) / self.base_mva
        p.setflags(write=False)
        return p


@dataclass(frozen=True)
class GridMatrices:
    """DC operators: Laplacian B, its pseudo-inverse, incidence A, balance C.

    balance is identity on non-slack buses with the slack row replaced by
    -1 on every non-slack column, so (C p)_slack = -sum of the other
    injections regardless of the slack entry of p.
    """

    laplacian: np.ndarray
    pinv: np.ndarray
    incidence: np.ndarray
    balance: np.ndarray

    def __post_init__(self):
        for arr in (self.laplacian, self.pinv, self.incidence, self.balance):
            arr.setflags(write=False)


@dataclass(frozen=True)
class FeasibilityPolytope:
    """Linear feasibility system W p <= b over injection vectors (p.u.).

    Rows are stacked angle-upper, angle-lower, injection-upper,
    injection-lower. labels carries (kind, index) per row, where index is
    the branch position for angle rows and the bus id for injection rows.
    """

    normals: np.ndarray
    offsets: np.ndarray
    labels: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.normals.shape[0] != self.offsets.shape[0]:
            raise ValueError(
                f"row mismatch: {self.normals.shape[0]} normals vs "
                f"{self.offsets.shape[0]} offsets"
            )
        if len(self.labels) != self.normals.shape[0]:
            raise ValueError("one label per row required")
        self.normals.setflags(write=False)
        self.offsets.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.normals.shape[0]

    @property
    def n_buses(self) -> int:
        return self.normals.shape[1]


# ---------------------------------------------------------------------------
# case file parsing

def _strip_comment(line: str) -> str:
    pos = line.find("%")
    return line if pos < 0 else line[:pos]


def _parse_tables(text: str) -> tuple[dict[str, float], dict[str, list[tuple[int, list[float]]]]]:
    """Scan mpc.<name> assignments; matrices keep per-row line numbers."""
    scalars: dict[str, float] = {}
    tables: dict[str, list[tuple[int, list[float]]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if current is None:
            if not line.startswith("mpc."):
                continue  # function header, comments, anything non-mpc
            head, _, rest = line.partition("=")
            name = head.strip()[4:].strip()
            rest = rest.strip()
            if rest.startswith("["):
                current = name
                tables[current] = []
                rest = rest[1:].strip()
                if not rest:
                    continue
                line = rest  # data may start on the assignment line
            else:
                value = rest.rstrip(";").strip()
                if value.startswith(("'", '"')):
                    continue  # string metadata such as mpc.version
                try:
                    scalars[name] = float(value)
                except ValueError as exc:
                    raise CaseParseError(f"bad scalar for mpc.{name}: {value!r}", lineno) from exc
                continue
        # inside a matrix block
        closing = line.find("]")
        if closing >= 0:
            data, current_name = line[:closing], current
            current = None
        else:
            data, current_name = line, None
        for chunk in filter(None, (s.strip() for s in data.split(";"))):
            try:
                row = [float(tok) for tok in chunk.split()]
            except ValueError as exc:
                raise CaseParseError(
                    f"non-numeric entry in mpc table row: {chunk!r}", lineno
                ) from exc
            if row:
                tables[current_name or current].append((lineno, row))
    if current is not None:
        raise CaseParseError(f"unterminated matrix mpc.{current}")
    return scalars, tables


def _case_name(text: str) -> str:
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if line.startswith("function"):
            _, _, rhs = line.partition("=")
            return rhs.strip().rstrip(";").strip() or "case"
    return "case"


def parse_case(text: str, name: str | None = None) -> GridCase:
    """Parse MATPOWER-style case text into a GridCase.

    The consumed subset is mpc.baseMVA, mpc.bus (id, type, Pd), mpc.gen
    (bus, Pg, Pmax, Pmin, with the in-service flag honoured when present),
    mpc.branch (fbus, tbus, x, rateA) and mpc.gencost (linear coefficient
    of a polynomial cost). Branch and gen rows are accepted either in full
    MATPOWER column layout or in the reduced 4-column forms
    (fbus, tbus, x, rateA) and (bus, Pg, Pmax, Pmin). Comments start with
    '%'. Quadratic cost terms are dropped with a warning; piecewise-linear
    cost models are rejected.

    Parameters
    ----------
    text : str
        Case file contents.
    name : str, optional
        Case name; defaults to the function name in the file.

    Raises
    ------
    CaseParseError
        Malformed text, with the offending line number.
    CaseValidationError
        Well-formed text describing an invalid grid.
    """
    scalars, tables = _parse_tables(text)

    for required in ("bus", "gen", "branch"):
        if required not in tables or not tables[required]:
            raise CaseParseError(f"missing mpc.{required} table")
    if "baseMVA" not in scalars:
        raise CaseParseError("missing mpc.baseMVA")
    base_mva = scalars["baseMVA"]

    buses: list[Bus] = []
    load_mw: dict[int, float] = {}
    kinds: dict[int, str] = {}
    for lineno, row in tables["bus"]:
        if len(row) < 3:
            raise CaseParseError("bus row needs at least (id, type, Pd)", lineno)
        bus_id, bus_type, pd = int(row[0]), int(row[1]), row[2]
        kind = _BUS_TYPE_CODES.get(bus_type)
        if kind is None:
            raise CaseValidationError(
                f"bus {bus_id}: unsupported bus type {bus_type} (isolated?)"
            )
        if bus_id in kinds:
            raise CaseValidationError(f"duplicate bus id {bus_id} in bus table")
        kinds[bus_id] = kind
        load_mw[bus_id] = pd

    gen_rows: list[tuple[int, float, float, float]] = []  # bus, Pg, Pmax, Pmin
    in_service: list[bool] = []  # per raw row, to pair gencost rows correctly
    for lineno, row in tables["gen"]:
        if len(row) >= 10:
            on = row[7] != 0
            in_service.append(on)
            if on:
                gen_rows.append((int(row[0]), row[1], row[8], row[9]))
        elif len(row) == 4:
            in_service.append(True)
            gen_rows.append((int(row[0]), row[1], row[2], row[3]))
        else:
            raise CaseParseError(
                "gen row needs 4 columns (bus, Pg, Pmax, Pmin) or the full "
                f"MATPOWER layout, got {len(row)}",
                lineno,
            )

    costs = _parse_gencost(tables.get("gencost", []), in_service)

    generators = tuple(
        Generator(bus=b, p_min_mw=pmin, p_max_mw=pmax, cost=c)
        for (b, _pg, pmax, pmin), c in zip(gen_rows, costs)
    )

    pg_mw: dict[int, float] = {}
    for b, pg, _pmax, _pmin in gen_rows:
        pg_mw[b] = pg_mw.get(b, 0.0) + pg

    for bus_id in sorted(load_mw):
        buses.append(
            Bus(
                id=bus_id,
                kind=kinds[bus_id],
                load_mw=load_mw[bus_id],
                p_nominal_mw=pg_mw.get(bus_id, 0.0) - load_mw[bus_id],
            )
        )

    branches: list[Branch] = []
    for lineno, row in tables["branch"]:
        if len(row) >= 6:
            if len(row) >= 11 and row[10] == 0:
                continue  # out of service
            fbus, tbus, x, rate = int(row[0]), int(row[1]), row[3], row[5]
        elif len(row) == 4:
            fbus, tbus, x, rate = int(row[0]), int(row[1]), row[2], row[3]
        else:
            raise CaseParseError(
                "branch row needs 4 columns (fbus, tbus, x, rateA) or the "
                f"full MATPOWER layout, got {len(row)}",
                lineno,
            )
        # DC flow on branch k is (theta_i - theta_j)/x_k, so a rating in MW
        # converts to an angle-difference limit rate*x in p.u.; rating 0
        # means unlimited by MATPOWER convention
        if not rate >= 0:
            raise CaseValidationError(
                f"line {lineno}: branch {fbus}-{tbus} has negative or NaN rating {rate}"
            )
        limit = math.inf if rate == 0 else (rate / base_mva) * x
        branches.append(Branch(from_bus=fbus, to_bus=tbus, reactance=x, angle_limit=limit))

    return GridCase(
        name=name if name is not None else _case_name(text),
        base_mva=base_mva,
        buses=tuple(buses),
        branches=tuple(branches),
        generators=tuple(generators),
    )


def _parse_gencost(rows: list[tuple[int, list[float]]], in_service: list[bool]) -> list[float]:
    """Linear cost coefficient per in-service generator.

    gencost rows pair with raw gen rows (including out-of-service ones),
    so the in-service mask filters both the same way.
    """
    if not rows:
        raise CaseParseError("missing mpc.gencost table")
    n_raw = len(in_service)
    if len(rows) == 2 * n_raw:
        rows = rows[:n_raw]  # second half is reactive cost, not modelled
    if len(rows) != n_raw:
        raise CaseValidationError(
            f"gencost has {len(rows)} rows for {n_raw} generators"
        )
    rows = [row for row, on in zip(rows, in_service) if on]
    costs: list[float] = []
    dropped = False
    for lineno, row in rows:
        if len(row) < 5:
            raise CaseParseError("gencost row too short", lineno)
        model, n_coef = int(row[0]), int(row[3])
        if model != 2:
            raise CaseValidationError(
                f"gencost model {model} unsupported (polynomial only)"
            )
        coefs = row[4:4 + n_coef]
        if len(coefs) != n_coef:
            raise CaseParseError(
                f"gencost row declares {n_coef} coefficients, found {len(coefs)}",
                lineno,
            )
        # polynomial is c_{n-1} x^{n-1} + ... + c_1 x + c_0
        linear = coefs[-2] if n_coef >= 2 else 0.0
        if any(c != 0 for c in coefs[:-2]):
            dropped = True
        costs.append(linear)
    if dropped:
        logger.warning(
            "gencost carries higher-order terms; the dispatch LP keeps only "
            "the linear coefficients"
        )
    return costs


def load_case(path: str | Path) -> GridCase:
    """Read and parse a case file from disk.

    A missing file raises FileNotFoundError; any other unreadable file (a
    directory, no permission, text that is not UTF-8) raises
    CaseParseError naming the path.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise CaseParseError(f"cannot read case file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CaseParseError(
            f"case file {path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    return parse_case(text, name=path.stem)


def bundled_case_path(name: str) -> Path:
    """Path to a case file shipped with the package, e.g. 'case30'.

    Only a bare file name is looked up: a name with a directory part
    (absolute, relative or '..') is no bundled case.
    """
    fname = name if name.endswith(".m") else f"{name}.m"
    if Path(fname).name != fname:
        raise FileNotFoundError(f"no bundled case named {name!r}")
    path = Path(__file__).with_name("data") / fname
    if not path.is_file():
        raise FileNotFoundError(f"no bundled case named {name!r}")
    return path


# ---------------------------------------------------------------------------
# matrices and polytope

def build_matrices(case: GridCase) -> GridMatrices:
    """Construct B, its pseudo-inverse, the incidence matrix, and C.

    The pseudo-inverse comes from an eigendecomposition with eigenvalues
    below PINV_CUTOFF * lambda_max treated as the graph's zero mode.

    Raises
    ------
    numpy.linalg.LinAlgError
        Eigendecomposition failure, or a zero-mode count other than one.
    """
    n = case.n
    index = case.index

    lap = np.zeros((n, n))
    inc = np.zeros((case.m, n))
    for k, br in enumerate(case.branches):
        i, j = index[br.from_bus], index[br.to_bus]
        w = 1.0 / br.reactance
        lap[i, i] += w
        lap[j, j] += w
        lap[i, j] -= w
        lap[j, i] -= w
        inc[k, i] = 1.0
        inc[k, j] = -1.0

    eigval, eigvec = np.linalg.eigh(lap)
    cutoff = PINV_CUTOFF * float(np.max(np.abs(eigval)))
    null = np.abs(eigval) <= cutoff
    if int(null.sum()) != 1:
        raise np.linalg.LinAlgError(
            f"Laplacian has {int(null.sum())} near-zero eigenvalues, "
            "expected exactly 1 for a connected grid"
        )
    inv_eig = np.where(null, 0.0, 1.0 / np.where(null, 1.0, eigval))
    pinv = (eigvec * inv_eig) @ eigvec.T

    bal = np.eye(n)
    s = case.slack_index
    bal[s, :] = -1.0
    bal[s, s] = 0.0

    return GridMatrices(laplacian=lap, pinv=pinv, incidence=inc, balance=bal)


def build_polytope(case: GridCase, mat: GridMatrices) -> FeasibilityPolytope:
    """Stack angle and injection limits into W p <= b (p.u.).

    Angle rows are +/-(A B_pinv C) for branches with a finite limit.
    Injection rows are +/-C rows for buses carrying generators; their
    limits are the summed generator limits net of bus load. Pure load
    buses get no injection rows (loads are data, not decisions).
    """
    index = case.index
    angle_ops = mat.incidence @ mat.pinv @ mat.balance

    rows: list[np.ndarray] = []
    offs: list[float] = []
    labels: list[tuple[str, int]] = []

    limited = [k for k, br in enumerate(case.branches) if math.isfinite(br.angle_limit)]
    for k in limited:
        rows.append(angle_ops[k])
        offs.append(case.branches[k].angle_limit)
        labels.append(("angle-upper", k))
    for k in limited:
        rows.append(-angle_ops[k])
        offs.append(case.branches[k].angle_limit)
        labels.append(("angle-lower", k))

    p_min: dict[int, float] = {}
    p_max: dict[int, float] = {}
    for gen in case.generators:
        p_min[gen.bus] = p_min.get(gen.bus, 0.0) + gen.p_min_mw
        p_max[gen.bus] = p_max.get(gen.bus, 0.0) + gen.p_max_mw

    # injection limits are generator capacity net of bus load; the slack
    # bus gets its balance row so its implied output stays in bounds
    bounded = [bus for bus in case.buses if bus.id in p_max]
    for bus in bounded:
        rows.append(mat.balance[index[bus.id]])
        offs.append((p_max[bus.id] - bus.load_mw) / case.base_mva)
        labels.append(("injection-upper", bus.id))
    for bus in bounded:
        rows.append(-mat.balance[index[bus.id]])
        offs.append(-(p_min[bus.id] - bus.load_mw) / case.base_mva)
        labels.append(("injection-lower", bus.id))

    normals = np.array(rows) if rows else np.zeros((0, case.n))
    return FeasibilityPolytope(
        normals=normals,
        offsets=np.array(offs),
        labels=tuple(labels),
    )
