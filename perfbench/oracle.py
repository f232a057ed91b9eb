"""Independent answers the benchmark checks the program against.

Nothing here imports cndkit. Model counts are worked out from a schema-v1
document: shapes by enumerating the window positions along each axis, then
the closed-form per-kind parameter and multiply-accumulate formulas of the
README's "Analysis semantics". The Pareto answers use a plain O(n^2)
dominance filter and a direct comparison with the two frontiers.
"""

from __future__ import annotations

from dataclasses import dataclass

BYTES_PER_SCALAR = 4
OPTIMIZER_STATE = {"sgd_momentum": 1, "adam": 2}


class CheckFailed(Exception):
    """An output of the program disagrees with the independent answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _positions(dim: int, window: int, stride: int, padding: str) -> int:
    """Number of window placements along one axis."""
    last_start = dim - 1 if padding == "same" else dim - window
    return len(range(0, last_start + 1, stride))


@dataclass(frozen=True)
class ModelCounts:
    params: int
    trainable: int
    macs: int
    shapes: dict          # node id -> (h, w, c)
    activation_elems: int  # sum of every node's output elements at batch 1

    def memory_total(self, mode: str, optimizer: str = "adam", batch: int = 1,
                     nodes: list | None = None) -> int:
        weights = self.params * BYTES_PER_SCALAR
        if mode == "training":
            grads = self.trainable * BYTES_PER_SCALAR
            state = OPTIMIZER_STATE[optimizer] * self.trainable * BYTES_PER_SCALAR
            acts = 2 * batch * self.activation_elems * BYTES_PER_SCALAR
            return weights + grads + state + acts
        elems = {nid: h * w * c for nid, (h, w, c) in self.shapes.items()}
        peak = max(elems[n["id"]] + sum(elems[i] for i in n["inputs"]) for n in nodes)
        return weights + batch * peak * BYTES_PER_SCALAR


def count_model(doc: dict) -> ModelCounts:
    """Shapes, parameters, trainable parameters and MACs of a schema-v1 document."""
    shapes: dict[str, tuple[int, int, int]] = {}
    params = trainable = macs = 0
    for n in doc["nodes"]:
        kind, a, nid = n["kind"], n["attrs"], n["id"]
        ins = [shapes[i] for i in n["inputs"]]  # KeyError: input listed after its consumer
        if kind == "Input":
            shapes[nid] = tuple(doc["input_shape"])
            continue
        h, w, c = ins[0]
        if kind in ("Conv2D", "SeparableConv2D"):
            k = a["kernel"]
            oh = _positions(h, k, a["stride"], a["padding"])
            ow = _positions(w, k, a["stride"], a["padding"])
            m = a["filters"]
            if kind == "Conv2D":
                p = c * m * k * k + (m if a["has_bias"] else 0)
                macs += oh * ow * m * c * k * k
            else:
                p = c * k * k + c * m
                macs += oh * ow * (c * k * k + c * m)
            params += p
            trainable += p
            shapes[nid] = (oh, ow, m)
        elif kind == "MaxPool":
            k = a["pool_size"]
            shapes[nid] = (_positions(h, k, a["stride"], a["padding"]),
                           _positions(w, k, a["stride"], a["padding"]), c)
        elif kind == "BatchNorm":
            params += 4 * c
            trainable += 2 * c
            shapes[nid] = (h, w, c)
        elif kind == "Dense":
            u = a["units"]
            p = u * h * w * c + (u if a["has_bias"] else 0)
            params += p
            trainable += p
            macs += u * h * w * c
            shapes[nid] = (1, 1, u)
        elif kind == "GlobalAvgPool":
            shapes[nid] = (1, 1, c)
        elif kind == "Add":
            expect(ins[0] == ins[1], f"Add {nid!r} joins {ins[0]} and {ins[1]}")
            shapes[nid] = (h, w, c)
        elif kind == "Activation":
            shapes[nid] = (h, w, c)
        else:
            raise CheckFailed(f"unknown kind {kind!r}")
    elems = sum(h * w * c for h, w, c in shapes.values())
    return ModelCounts(params, trainable, macs, shapes, elems)


def strategy1_targets(doc: dict) -> list[str]:
    """First separable conv of each ``flow/module`` tag group, if its kernel is 3."""
    first: dict[str, dict] = {}
    for n in doc["nodes"]:
        parts = (n["tag"] or "").split("/")
        if len(parts) >= 3 and n["kind"] == "SeparableConv2D":
            first.setdefault("/".join(parts[:2]), n)
    return [n["id"] for n in first.values() if n["attrs"]["kernel"] == 3]


# -- Pareto -------------------------------------------------------------------

def dominance_front(points: list[tuple[float, float]]) -> list[bool]:
    """On-front flag per (test_acc, avg_mem_mb) point: no other point is at
    least as accurate and at most as large with one inequality strict."""
    flags = []
    for a, m in points:
        flags.append(not any(
            a2 >= a and m2 <= m and (a2 > a or m2 < m) for a2, m2 in points
        ))
    return flags


def quadrant(acc: float, mem: float, acc_frontier: float, mem_frontier: float) -> str:
    high = "HighAcc" if acc >= acc_frontier else "LowAcc"
    low = "LowMem" if mem <= mem_frontier else "HighMem"
    return high + low


def memory_midpoint(mems: list[float]) -> float:
    return (min(mems) + max(mems)) / 2
