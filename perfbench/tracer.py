"""Per-module call tracer installed on a package from outside it.

`Tracer.install` wraps every function defined in each submodule of the
package, and the methods and property getters of every class defined there,
then rebinds each wrapped name in every package module that holds it (the
package namespace re-exports names, and modules import each other's
functions by name). `Tracer.uninstall` puts every original back.

Each wrapper keeps a stack of open frames, so a call's self time is its
duration minus the time of the wrapped calls it made. A layer is one
submodule; its self time sums the self times of its callables.
Named groups (see `Group`) collect call counts, outermost inclusive time and
probe counters over callables picked by a predicate, so the metrics that use
them do not depend on a fixed list of names. A group that matches nothing is
reported as absent.

The tracer is single-threaded: the traced program must run its work on the
calling thread.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pkgutil
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

# Dunder methods that do work worth attributing; others (repr, eq, hash...)
# are left alone.
_TRACED_DUNDERS = ("__init__", "__post_init__", "__call__")


@dataclass(frozen=True)
class Target:
    """One wrapped callable: its layer, qualified name and owning class."""

    layer: str
    qualname: str
    owner: type | None

    @property
    def name(self) -> str:
        """Last component of the qualified name (the function or method name)."""
        return self.qualname.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class Group:
    """Callables of one layer selected by `match`, counted together.

    `probe(args, kwargs, result, outermost, count)` runs after each call of
    a member, outside the timed interval; `outermost` is False when another
    member of the group is already on the stack, and `count(name, value)`
    adds to a named counter.
    """

    name: str
    layer: str
    match: Callable[[Target], bool]
    probe: Callable | None = None


@dataclass
class _GroupState:
    group: Group
    calls: int = 0
    inclusive_s: float = 0.0
    depth: int = 0
    members: list = field(default_factory=list)


def package_modules(package) -> list:
    """The package itself followed by every submodule, imported."""
    modules = [package]
    for info in sorted(pkgutil.iter_modules(package.__path__), key=lambda i: i.name):
        modules.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return modules


def snapshot(package) -> dict:
    """Every module attribute and class-dict entry in the package, by reference."""
    state = {}
    for module in package_modules(package):
        for attr, value in vars(module).items():
            state[(module.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for cattr, cvalue in vars(value).items():
                    state[(module.__name__, f"{attr}.{cattr}")] = cvalue
    return state


def unchanged(before: dict, after: dict) -> bool:
    """True when two snapshots hold the very same objects under the same names."""
    return before.keys() == after.keys() and all(before[k] is after[k] for k in before)


class Tracer:
    def __init__(self, package, groups=()):
        self.package = package
        self.groups = {g.name: _GroupState(g) for g in groups}
        self.targets: list[Target] = []
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- results -----------------------------------------------------------

    def absent_groups(self) -> list[str]:
        """Groups that matched no callable in the package."""
        return sorted(n for n, s in self.groups.items() if not s.members)

    def group_calls(self, name: str) -> int:
        return self.groups[name].calls

    def group_inclusive_s(self, name: str) -> float:
        return self.groups[name].inclusive_s

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        modules = package_modules(self.package)
        replaced: dict[int, tuple[object, object]] = {}
        for module in modules[1:]:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapper = self._wrap(value, Target(layer, attr, None))
                    replaced[id(value)] = (value, wrapper)
                elif inspect.isclass(value):
                    self._wrap_class(value, layer)
        # Rebind every module-level reference, including re-exports and
        # `from .x import name` copies in sibling modules.
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _TRACED_DUNDERS:
                continue
            target = Target(layer, f"{cls.__name__}.{attr}", cls)
            if isinstance(value, property) and value.fget is not None:
                new = property(self._wrap(value.fget, target), value.fset, value.fdel, value.__doc__)
            elif isinstance(value, (staticmethod, classmethod)):
                new = type(value)(self._wrap(value.__func__, target))
            elif inspect.isfunction(value):
                new = self._wrap(value, target)
            else:
                continue
            self._restore.append((cls, attr, value))
            setattr(cls, attr, new)

    def _wrap(self, fn, target: Target):
        self.targets.append(target)
        groups = [s for s in self.groups.values()
                  if s.group.layer == target.layer and s.group.match(target)]
        for state in groups:
            state.members.append(target.qualname)
        layer = target.layer
        stack = self._stack
        probed = [(i, s.group.probe) for i, s in enumerate(groups) if s.group.probe is not None]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_groups = [s.depth == 0 for s in groups]
            for s in groups:
                s.depth += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.layer_self_s[layer] += elapsed - stack.pop()
                for s, outer in zip(groups, outer_groups):
                    s.depth -= 1
                    s.calls += 1
                    if outer:
                        s.inclusive_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if probed:
                t_probe = perf_counter()
                for i, probe in probed:
                    probe(args, kwargs, result, outer_groups[i], self.count)
                # Keep probe cost out of the caller's self time.
                if stack:
                    stack[-1] += perf_counter() - t_probe
            return result

        return wrapper


def is_operator_class(target: Target) -> bool:
    """True for methods of a plain (non-dataclass) class: an operator, not a record."""
    return target.owner is not None and not dataclasses.is_dataclass(target.owner)
