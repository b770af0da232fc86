"""Span tracer for the benchmark's traced run.

It wraps named symvert functions from outside the library: every
``symvert.*`` module attribute that is the same function object (for
example ``linalg.mat_mul`` and the ``mat_mul`` imported into ``rep``) and
methods on their classes (``FieldCtx.vmul``, ``GroupTable.*``) are replaced
by a timing wrapper.  Spans (name, start, end, parent, op) and derived work
counts are kept in memory and written out after the run.

A span's self time is its duration minus the durations of its direct
traced children, so the self times of all spans in an op add up exactly to
the time its root spans cover.
"""

from __future__ import annotations

import hashlib
import importlib
from array import array
from time import perf_counter

import numpy as np

# (layer, function path inside the module).  The layer is the module name.
TARGETS = [
    ("field", "FieldCtx.vmul"),
    ("linalg", "mat_mul"),
    ("linalg", "rref"),
    ("linalg", "kernel"),
    ("linalg", "kernel_gf2_stream"),
    ("linalg", "reduce_mod"),
    ("linalg", "min_poly"),
    ("linalg", "solve"),
    ("polys", "factor"),
    ("group", "load_group"),
    ("group", "group_from_dict"),
    ("group", "GroupTable.conjugacy_classes"),
    ("group", "GroupTable.closure"),
    ("group", "GroupTable.centralizer"),
    ("group", "GroupTable.normalizer"),
    ("group", "GroupTable.sylow2"),
    ("group", "GroupTable.all_subgroups_of"),
    ("group", "GroupTable.two_subgroups_up_to_conjugacy"),
    ("group", "GroupTable.subgroup_conjugate"),
    ("group", "GroupTable.conjugate_into"),
    ("group", "GroupTable.left_transversal"),
    ("group", "GroupTable.double_cosets"),
    ("group", "Subgroup.as_table"),
    ("rep", "hom_space"),
    ("rep", "spin"),
    ("rep", "chop"),
    ("rep", "radical"),
    ("rep", "decompose"),
    ("rep", "module_iso"),
    ("rep", "pims"),
    ("rep", "induce"),
    ("forms", "invariant_forms"),
    ("forms", "base_form"),
    ("forms", "orth_decompose"),
    ("vertex", "rel_trace_batch"),
    ("vertex", "is_projective"),
    ("vertex", "is_summand"),
    ("vertex", "green_vertex"),
    ("vertex", "symmetric_vertices"),
    ("vertex", "is_sym_projective"),
    ("blocks", "block_decomposition"),
    ("blocks", "block_of_module"),
    ("specht", "specht_module"),
    ("cli", "main"),
]

LAYERS = [
    "field", "linalg", "polys", "group", "rep",
    "forms", "vertex", "blocks", "specht", "cli",
]

MODULES = LAYERS + ["catalog"]


def _shape(a) -> tuple:
    return getattr(a, "shape", ())


def _matrix_key(mats) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for A in mats:
        A = np.ascontiguousarray(A)
        h.update(repr(A.shape).encode())
        h.update(A.tobytes())
    return h.digest()


class Tracer:
    """Installs wrappers and records spans and counts."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []  # "layer.func", one per traced function
        self.layer_of: list[str] = []
        self.missing: list[str] = []
        # span store, one entry per call
        self.s_name = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_op = array("i")
        # per-function aggregates
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.work: list[float] = []  # derived work count
        self.depth: list[int] = []
        self.hom_repeats = 0
        self._stack: list[list] = []  # [span index, time of traced children]
        self._op = -1
        self._hom_seen: set[bytes] = set()
        self._bound: list[tuple[object, str, object, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {}
        for name in MODULES:
            mods[name] = importlib.import_module(f"symvert.{name}")
        for layer, path in self.targets:
            full = f"{layer}.{path.split('.')[-1]}"
            owner = mods[layer]
            parts = path.split(".")
            try:
                for p in parts[:-1]:
                    owner = getattr(owner, p)
                orig = owner.__dict__[parts[-1]] if isinstance(owner, type) \
                    else getattr(owner, parts[-1])
            except (AttributeError, KeyError):
                self.missing.append(full)
                continue
            fid = len(self.names)
            self.names.append(full)
            self.layer_of.append(layer)
            for lst, v in ((self.calls, 0), (self.self_s, 0.0),
                           (self.incl_s, 0.0), (self.work, 0.0),
                           (self.depth, 0)):
                lst.append(v)
            wrapped = self._wrap(orig, fid, full)
            if isinstance(owner, type):
                self._bound.append((owner, parts[-1], orig, wrapped))
            else:
                # every symvert namespace that holds the same object
                for mod in mods.values():
                    for attr, val in vars(mod).items():
                        if val is orig:
                            self._bound.append((mod, attr, orig, wrapped))
        self.resume()

    def suspend(self) -> None:
        """Put the original functions back (for untimed checks)."""
        for owner, attr, orig, _ in self._bound:
            setattr(owner, attr, orig)

    def resume(self) -> None:
        for owner, attr, _, wrapped in self._bound:
            setattr(owner, attr, wrapped)

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._hom_seen = set()

    def end_op(self) -> None:
        self._op = -1

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, fn, fid: int, full: str):
        tracer = self
        count = _COUNTERS.get(full)

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            idx = len(tracer.s_name)
            tracer.s_name.append(fid)
            tracer.s_start.append(t0)
            tracer.s_end.append(0.0)
            tracer.s_parent.append(parent)
            tracer.s_op.append(tracer._op)
            frame = [idx, 0.0]
            stack.append(frame)
            tracer.depth[fid] += 1
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    tracer.work[fid] += count(tracer, args, kwargs, result)
                return result
            finally:
                tracer.depth[fid] -= 1
                stack.pop()
                t1 = perf_counter()
                dur = t1 - t0
                tracer.s_end[idx] = t1
                tracer.calls[fid] += 1
                tracer.self_s[fid] += dur - frame[1]
                if tracer.depth[fid] == 0:
                    tracer.incl_s[fid] += dur
                if stack:
                    stack[-1][1] += dur

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", full)
        return wrapper

    # -- results -----------------------------------------------------------

    def root_time_by_op(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for i in range(len(self.s_name)):
            if self.s_parent[i] == -1:
                op = self.s_op[i]
                out[op] = out.get(op, 0.0) + self.s_end[i] - self.s_start[i]
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.s_name, dtype=np.int32),
            start=np.frombuffer(self.s_start, dtype=np.float64),
            end=np.frombuffer(self.s_end, dtype=np.float64),
            parent=np.frombuffer(self.s_parent, dtype=np.int32),
            op=np.frombuffer(self.s_op, dtype=np.int32),
        )

    def summary(self) -> dict:
        """Per-function and per-layer figures for the whole traced pass."""
        fn = {}
        for fid, full in enumerate(self.names):
            fn[full] = {
                "calls": self.calls[fid],
                "self_s": self.self_s[fid],
                "incl_s": self.incl_s[fid],
                "work": self.work[fid],
            }
        layer_self = {layer: 0.0 for layer in LAYERS}
        for fid, layer in enumerate(self.layer_of):
            layer_self[layer] += self.self_s[fid]
        # Las Vegas attempts: min_poly calls by nearest traced ancestor
        attempts = {"rep.chop": 0, "rep.decompose": 0}
        mp = self.names.index("linalg.min_poly") if "linalg.min_poly" in self.names else -1
        for i in range(len(self.s_name)):
            p = self.s_parent[i]
            if self.s_name[i] == mp and p >= 0:
                anc = self.names[self.s_name[p]]
                if anc in attempts:
                    attempts[anc] += 1
        return {
            "functions": fn,
            "layer_self_s": layer_self,
            "attempts": attempts,
            "hom_repeats": self.hom_repeats,
            "spans": len(self.s_name),
            "missing": list(self.missing),
        }


# -- derived work counts ---------------------------------------------------


def _count_mat_mul(tr, args, kwargs, result) -> float:
    A, B = _shape(args[1]), _shape(args[2])
    rows = A[0] if len(A) == 2 else 1
    inner = A[-1] if A else 1
    cols = B[1] if len(B) == 2 else 1
    return float(rows * inner * cols)


def _count_rref(tr, args, kwargs, result) -> float:
    s = _shape(args[1])
    return float(s[0] * s[1]) if len(s) == 2 else 0.0


def _count_vmul(tr, args, kwargs, result) -> float:
    return float(getattr(result, "size", 1))


def _count_hom(tr, args, kwargs, result) -> float:
    M, N = args[0], args[1]
    H = args[2] if len(args) > 2 else kwargs.get("H")
    key = _matrix_key(M.gen_matrices) + _matrix_key(N.gen_matrices) + (
        repr(sorted(H.elements)).encode() if H is not None else b"G"
    )
    if key in tr._hom_seen:
        tr.hom_repeats += 1
    else:
        tr._hom_seen.add(key)
    return float(M.dim * N.dim)


def _count_rel_trace(tr, args, kwargs, result) -> float:
    M, fs, H = args[0], args[1], args[2]
    K = args[3] if len(args) > 3 else kwargs.get("K")
    big = K.order if K is not None else M.group.order
    return float(big // H.order * len(fs))


def _count_chop(tr, args, kwargs, result) -> float:
    return float(len(result))  # composition factors found


def _count_decompose(tr, args, kwargs, result) -> float:
    return float(2 * len(result.components) - 1)  # nodes of the split tree


_COUNTERS = {
    "field.vmul": _count_vmul,
    "linalg.mat_mul": _count_mat_mul,
    "linalg.rref": _count_rref,
    "rep.hom_space": _count_hom,
    "rep.chop": _count_chop,
    "rep.decompose": _count_decompose,
    "vertex.rel_trace_batch": _count_rel_trace,
}
