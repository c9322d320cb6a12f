"""Which semipath functions the traced run wraps, and the per-layer metrics.

Every function in a module's `__all__` is wrapped, plus the `check_*`
functions of `verify` and the `cmd_*` handlers of `cli`.  `is_member` and
`presentation` are counted, not timed: they run millions of times per round
and a span each would swamp the traced run.
"""

from __future__ import annotations

import inspect

from tracer import Tracer

LAYERS = ("cli", "semigroup", "leansets", "paths", "semimodules", "syzygies", "counting", "verify")
COUNTED = {"semigroup.is_member", "semigroup.presentation"}

# (name, unit, better): the per-layer metrics every traced run reports, in
# BENCHMARK.json order.  A layer a workload does not exercise reads 0.
PER_LAYER = [
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.lines_out", "count", "higher"),
    ("cli.main.bytes_out", "count", "lower"),
    ("cli.enumerate.wall_s", "s", "lower"),
    ("cli.count.wall_s", "s", "lower"),
    ("cli.orbits.wall_s", "s", "lower"),
    ("cli.verify.wall_s", "s", "lower"),
    ("leansets.enumerate_lean_sets.items", "count", "higher"),
    ("leansets.enumerate_lean_sets.self_s", "s", "lower"),
    ("leansets.is_lean.calls", "count", "lower"),
    ("leansets.is_lean.self_s", "s", "lower"),
    ("leansets.LeanSet.from_members.calls", "count", "lower"),
    ("semigroup.is_member.calls", "count", "lower"),
    ("semigroup.presentation.calls", "count", "lower"),
    ("semigroup.membership_sieve.calls", "count", "lower"),
    ("semigroup.membership_sieve.cells", "count", "lower"),
    ("semimodules.Semimodule.construct.calls", "count", "lower"),
    ("semimodules.Semimodule.construct.self_s", "s", "lower"),
    ("semimodules.Semimodule.from_json.calls", "count", "lower"),
    ("semimodules.minimal_generators.calls", "count", "lower"),
    ("semimodules.minimal_generators.self_s", "s", "lower"),
    ("semimodules.minimal_generators.cells", "count", "lower"),
    ("semimodules.normalize.calls", "count", "lower"),
    ("semimodules.is_isomorphic.calls", "count", "lower"),
    ("syzygies.syzygy.calls", "count", "lower"),
    ("syzygies.syzygy.self_s", "s", "lower"),
    ("syzygies.syzygy_period.calls", "count", "lower"),
    ("syzygies.syzygy_period.self_s", "s", "lower"),
    ("syzygies.iterated_syzygy.steps_per_k", "ratio", "lower"),
    ("syzygies.syzygy_oracle.calls", "count", "lower"),
    ("syzygies.syzygy_oracle.self_s", "s", "lower"),
    ("syzygies.fundamental_couple.self_s", "s", "lower"),
    ("syzygies.validate_fundamental_couple.self_s", "s", "lower"),
    ("paths.path_from_lean_set.calls", "count", "lower"),
    ("paths.admissible_rotation.calls", "count", "lower"),
    ("paths.admissible_rotation.self_s", "s", "lower"),
    ("paths.stays_below_diagonal.calls", "count", "lower"),
    ("paths.cyclic_rotations.calls", "count", "lower"),
    ("verify.brute_period_tally.self_s", "s", "lower"),
    ("verify.check_gap_arithmetic.self_s", "s", "lower"),
    ("verify.check_lean_enumeration.self_s", "s", "lower"),
    ("verify.check_cycle_lemma.self_s", "s", "lower"),
    ("verify.check_syzygy_routes.self_s", "s", "lower"),
    ("verify.check_periods.self_s", "s", "lower"),
    ("verify.check_catalan_narayana.self_s", "s", "lower"),
    ("counting.self_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

_ITER_K = "syzygies.iterated_syzygy.k_total"
_ITER_STEPS = "syzygies.iterated_syzygy.steps"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _hooks(tracer: Tracer) -> dict:
    """Domain counts taken from a call's arguments before it runs."""

    def sieve_cells(args, kwargs):
        tracer.add("semigroup.membership_sieve.cells", max(_arg(args, kwargs, 1, "limit") + 1, 0))
        return args

    def generator_cells(args, kwargs):
        # xs may be a one-shot iterator; hand the function a list of the same values.
        semigroup = _arg(args, kwargs, 0, "semigroup")
        values = list(_arg(args, kwargs, 1, "xs"))
        kwargs.pop("semigroup", None)
        kwargs.pop("xs", None)
        if values and all(isinstance(v, int) for v in values):
            width = max(values) + semigroup.frobenius + 2 - min(values)
            tracer.add("semimodules.minimal_generators.cells", max(width, 0))
        return (semigroup, values) + tuple(args[2:])

    def iterate_k(args, kwargs):
        tracer.add(_ITER_K, _arg(args, kwargs, 2, "times"))
        return args

    iterating = tracer.name_id("syzygies.iterated_syzygy")

    def syzygy_step(args, kwargs):
        if tracer.depth[iterating]:
            tracer.add(_ITER_STEPS, 1)
        return args

    return {
        "semigroup.membership_sieve": sieve_cells,
        "semimodules.minimal_generators": generator_cells,
        "syzygies.iterated_syzygy": iterate_k,
        "syzygies.syzygy": syzygy_step,
    }


def instrument(tracer: Tracer, lib) -> None:
    """Wrap the public functions of every semipath layer module in `lib`."""
    hooks = _hooks(tracer)
    replacements = {}
    for layer in LAYERS:
        module = getattr(lib, layer)
        names = list(module.__all__)
        if layer == "verify":
            names += [n for n in vars(module) if n.startswith("check_")]
        if layer == "cli":
            names += [n for n in vars(module) if n.startswith("cmd_")]
        for attr in names:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if attr.startswith("cmd_"):
                metric = "cli." + attr[4:].replace("_", "-")
            else:
                metric = f"{layer}.{attr}"
            if metric in COUNTED:
                replacements[fn] = tracer.counted(metric, fn)
            else:
                replacements[fn] = tracer.timed(metric, fn, hooks.get(metric))
    semimodule, lean_set = lib.Semimodule, lib.LeanSet
    class_attrs = [
        (semimodule, "__post_init__",
         tracer.timed("semimodules.Semimodule.construct", semimodule.__dict__["__post_init__"])),
        (semimodule, "from_json",
         classmethod(tracer.timed("semimodules.Semimodule.from_json",
                                  semimodule.__dict__["from_json"].__func__))),
        (lean_set, "from_members",
         classmethod(tracer.timed("leansets.LeanSet.from_members",
                                  lean_set.__dict__["from_members"].__func__))),
    ]
    tracer.install(lib.__name__, replacements, class_attrs)


def layer_metrics(snapshot: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced round from a tracer snapshot.

    `process.cpu_s` and `trace.overhead_frac` come from the runner, not here.
    """
    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        if name in ("process.cpu_s", "trace.overhead_frac"):
            continue
        if name == "counting.self_s":
            value = sum(v for k, v in snapshot.items() if k.startswith("counting.") and k.endswith(".self_s"))
        elif name == "syzygies.iterated_syzygy.steps_per_k":
            k_total = snapshot.get(_ITER_K, 0)
            value = snapshot.get(_ITER_STEPS, 0) / k_total if k_total else 0.0
        elif name.endswith(".wall_s"):
            value = snapshot.get(name[: -len(".wall_s")] + ".total_s", 0.0)
        else:
            value = snapshot.get(name, 0)
        out[name] = value
    return out
