"""Pluggable kernel-backend registry for the TileSpGEMM pipeline.

The three-step pipeline funnels its hot inner work through the six
kernels of a :class:`~repro.backend.base.KernelSet` (mask OR-accumulate,
popcount, popcount rank, scatter-add accumulate, tile compaction,
dense-tile accumulate); this module maps *names* onto kernel sets so the
same pipeline can run on any registered implementation::

    from repro.backend import list_backends, use_backend
    from repro.core import tile_spgemm

    tile_spgemm(a, b, backend="pyloops")      # per-call selection
    with use_backend("pyloops"):              # scoped process default
        tile_spgemm(a, b)

Selection precedence, resolved per run by :func:`resolve_backend`:

1. an explicit argument (a name or a ``KernelSet`` instance);
2. the process default set by :func:`set_default_backend` /
   :func:`use_backend`;
3. the ``REPRO_BACKEND`` environment variable;
4. the always-registered ``numpy`` reference.

Names — not ``KernelSet`` objects — are what crosses process boundaries:
the parallel engine (:mod:`repro.runtime.parallel`) resolves its backend
spec to a name in the coordinator and ships the name to pool workers,
whose freshly-imported registry re-resolves it.  Module state (the
process default, instantiated kernel sets) does not survive ``spawn``,
but the registry and the environment do.

Every registration also declares a
:class:`~repro.backend.base.ConformanceTier`: ``EXACT`` backends are
byte-identical to the reference, ``FAST_MATH`` backends only promise
byte-identical *structure* plus values within their declared
:class:`~repro.backend.base.ValueTolerance`.  Callers that need
bit-reproducible values pass ``tier=ConformanceTier.EXACT`` to
:func:`resolve_backend` — resolution then refuses fast-math backends
loudly (a :class:`~repro.errors.ConfigurationError` when the name came
from ``REPRO_BACKEND``) instead of silently relaxing the guarantee.

In-tree backends:

* ``numpy`` — the vectorised reference; always available and the
  definition of the byte-level conformance contract (tier 1);
* ``pyloops`` — pure-Python scalar loops; the slow, obviously-correct
  oracle for differential testing (tier 1);
* ``numba`` — JIT-compiled sequential scalar loops; registered only
  when :mod:`numba` is importable, skipped otherwise (tier 1);
* ``numba-par`` — ``prange`` + ``fastmath`` variants of the same
  kernels (tier 2, numba-gated like ``numba``);
* ``fragment`` — batched 16-wide fragment accumulation modelling the
  tensor-core dense-16×16 path (tier 2, always available).

``docs/BACKENDS.md`` documents the registry API, how to write a backend
and the two-tier conformance contract the test suite enforces.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.backend.accel import NumbaKernelSet, NumbaParKernelSet, numba_available
from repro.backend.base import (
    DEFAULT_FAST_MATH_TOLERANCE,
    EXACT_TOLERANCE,
    KERNEL_NAMES,
    ConformanceTier,
    KernelSet,
    ValueTolerance,
)
from repro.backend.fragment import FragmentKernelSet
from repro.backend.numpy_backend import NumpyKernelSet
from repro.backend.pyloops import PyLoopsKernelSet
from repro.errors import ConfigurationError, InvalidInputError

__all__ = [
    "ENV_BACKEND",
    "DEFAULT_BACKEND",
    "ConformanceTier",
    "ValueTolerance",
    "EXACT_TOLERANCE",
    "DEFAULT_FAST_MATH_TOLERANCE",
    "KernelSet",
    "KERNEL_NAMES",
    "NumpyKernelSet",
    "PyLoopsKernelSet",
    "NumbaKernelSet",
    "NumbaParKernelSet",
    "FragmentKernelSet",
    "numba_available",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "list_backends",
    "backend_available",
    "backend_tier",
    "backend_tolerance",
    "resolve_backend",
    "resolve_backend_name",
    "set_default_backend",
    "default_backend_name",
    "use_backend",
]

#: Environment variable consulted when neither an explicit backend nor a
#: process default is set (inherited by spawned pool workers).
ENV_BACKEND = "REPRO_BACKEND"

#: The always-registered reference backend.
DEFAULT_BACKEND = "numpy"


@dataclass
class _Entry:
    name: str
    factory: Callable[[], KernelSet]
    available: Callable[[], bool] = field(default=lambda: True)
    description: str = ""
    tier: ConformanceTier = ConformanceTier.EXACT
    tolerance: ValueTolerance = EXACT_TOLERANCE


_REGISTRY: Dict[str, _Entry] = {}
_INSTANCES: Dict[str, KernelSet] = {}
_DEFAULT_NAME: Optional[str] = None


def register_backend(
    name: str,
    factory: Optional[Callable[[], KernelSet]] = None,
    *,
    available: Optional[Callable[[], bool]] = None,
    description: str = "",
    tier: Union[ConformanceTier, str] = ConformanceTier.EXACT,
    tolerance: Optional[ValueTolerance] = None,
    replace: bool = False,
):
    """Register ``factory`` (returning a :class:`KernelSet`) as ``name``.

    Usable directly or as a class decorator::

        @register_backend("mybackend", description="...")
        class MyKernelSet(KernelSet): ...

    Parameters
    ----------
    name:
        Registry key; also what ``REPRO_BACKEND`` / ``--backend`` accept.
    factory:
        Zero-argument callable producing the kernel set (a ``KernelSet``
        subclass works — classes are their own factories).  Instantiated
        lazily on first :func:`get_backend` and cached per process.
    available:
        Optional probe; when it returns False the backend stays listed
        under ``list_backends(available_only=False)`` but cannot be
        instantiated (optional-dependency gating).
    description:
        One line for ``list_backends`` consumers and help text.
    tier:
        Declared :class:`ConformanceTier` (or its string value).  EXACT
        promises byte-identity with the numpy reference; FAST_MATH only
        promises byte-identical *structure* plus values within
        ``tolerance``.  Exact-mode resolution refuses FAST_MATH entries.
    tolerance:
        Declared :class:`ValueTolerance` for FAST_MATH backends; defaults
        to :data:`DEFAULT_FAST_MATH_TOLERANCE` (and to the all-zero
        :data:`EXACT_TOLERANCE` for EXACT registrations).
    replace:
        Allow overwriting an existing registration (tests).
    """
    tier = ConformanceTier.coerce(tier)
    if tolerance is None:
        tolerance = (
            DEFAULT_FAST_MATH_TOLERANCE
            if tier is ConformanceTier.FAST_MATH
            else EXACT_TOLERANCE
        )

    def _register(fac):
        if name in _REGISTRY and not replace:
            raise InvalidInputError(f"backend {name!r} is already registered")
        _REGISTRY[name] = _Entry(
            name=name,
            factory=fac,
            available=available or (lambda: True),
            description=description,
            tier=tier,
            tolerance=tolerance,
        )
        _INSTANCES.pop(name, None)
        return fac

    if factory is None:
        return _register
    return _register(factory)


def unregister_backend(name: str) -> None:
    """Remove a registration (primarily for test cleanup).

    The ``numpy`` reference cannot be removed — the pipeline's default
    resolution and the conformance suite both anchor on it.
    """
    if name == DEFAULT_BACKEND:
        raise InvalidInputError("the numpy reference backend cannot be unregistered")
    _REGISTRY.pop(name, None)
    _INSTANCES.pop(name, None)
    global _DEFAULT_NAME
    if _DEFAULT_NAME == name:
        _DEFAULT_NAME = None


def backend_available(name: str) -> bool:
    """True when ``name`` is registered and its availability probe passes."""
    entry = _REGISTRY.get(name)
    return entry is not None and bool(entry.available())


def list_backends(
    available_only: bool = True,
    tier: Union[None, ConformanceTier, str] = None,
) -> List[str]:
    """Registered backend names, sorted; ``numpy`` always first.

    ``available_only`` (default) filters out registrations whose
    optional dependency is missing on this machine.  ``tier`` restricts
    the listing to one conformance tier (e.g. the exact-only set an
    exact-mode caller may choose from).
    """
    want = None if tier is None else ConformanceTier.coerce(tier)
    names = [
        n
        for n, e in _REGISTRY.items()
        if (not available_only or e.available())
        and (want is None or e.tier is want)
    ]
    names.sort(key=lambda n: (n != DEFAULT_BACKEND, n))
    return names


def backend_tier(name: str) -> ConformanceTier:
    """The :class:`ConformanceTier` declared for ``name`` at registration.

    Works without instantiating the backend (and therefore without its
    optional dependency); unknown names raise
    :class:`~repro.errors.InvalidInputError`.
    """
    entry = _REGISTRY.get(name)
    if entry is None:
        raise InvalidInputError(
            f"unknown backend {name!r}; registered: {list_backends(available_only=False)}"
        )
    return entry.tier


def backend_tolerance(name: str) -> ValueTolerance:
    """The :class:`ValueTolerance` declared for ``name`` at registration."""
    entry = _REGISTRY.get(name)
    if entry is None:
        raise InvalidInputError(
            f"unknown backend {name!r}; registered: {list_backends(available_only=False)}"
        )
    return entry.tolerance


def get_backend(name: str) -> KernelSet:
    """The (per-process cached) kernel set registered as ``name``.

    Raises :class:`~repro.errors.InvalidInputError` for unknown names and
    for registered-but-unavailable backends, naming the alternatives.
    """
    inst = _INSTANCES.get(name)
    if inst is not None:
        return inst
    entry = _REGISTRY.get(name)
    if entry is None:
        raise InvalidInputError(
            f"unknown backend {name!r}; registered: {list_backends(available_only=False)}"
        )
    if not entry.available():
        raise InvalidInputError(
            f"backend {name!r} is registered but unavailable on this machine "
            f"(missing optional dependency); available: {list_backends()}"
        )
    inst = entry.factory()
    if not isinstance(inst, KernelSet):
        raise InvalidInputError(
            f"backend {name!r} factory returned {type(inst).__name__}, "
            "expected a KernelSet"
        )
    inst.name = name
    inst.tier = entry.tier
    inst.tolerance = entry.tolerance
    _INSTANCES[name] = inst
    return inst


def set_default_backend(name: Optional[str]) -> Optional[str]:
    """Set (or with ``None`` clear) the process-default backend.

    Returns the previous default name so callers can restore it.  The
    default is per-process module state: it does **not** survive into
    spawned pool workers, which fall back to ``REPRO_BACKEND`` — pass an
    explicit backend (the engines thread the resolved *name* through)
    when the choice must cross processes.
    """
    global _DEFAULT_NAME
    if name is not None:
        get_backend(name)  # validate eagerly
    previous = _DEFAULT_NAME
    _DEFAULT_NAME = name
    return previous


def default_backend_name() -> str:
    """The name :func:`resolve_backend` would use with no explicit spec."""
    if _DEFAULT_NAME is not None:
        return _DEFAULT_NAME
    env = os.environ.get(ENV_BACKEND, "").strip()
    return env or DEFAULT_BACKEND


def resolve_backend(
    spec: Union[None, str, KernelSet] = None,
    *,
    tier: Union[None, ConformanceTier, str] = None,
) -> KernelSet:
    """Resolve a backend spec to a kernel set.

    ``spec`` may be a :class:`KernelSet` instance (returned as-is after
    the tier gate), a registered name, or ``None`` — which walks the
    precedence chain: process default, then ``REPRO_BACKEND``, then
    ``numpy``.

    ``tier`` is the *caller's requirement*, not a preference:
    ``tier=ConformanceTier.EXACT`` means "I need byte-reproducible
    values", and a resolution that lands on a FAST_MATH backend then
    fails loudly instead of silently relaxing the guarantee — with
    :class:`~repro.errors.ConfigurationError` naming ``REPRO_BACKEND``
    when the offending name came from the environment, and the generic
    :class:`~repro.errors.InvalidInputError` when it was passed
    explicitly.  ``tier=None`` (the default) accepts any tier, which is
    the opt-in for fast-math kernels.

    A name that came from the ``REPRO_BACKEND`` environment variable and
    fails to resolve raises :class:`~repro.errors.ConfigurationError`
    naming the variable (exit code 10 at the CLI) instead of the generic
    invalid-input error an explicit argument gets.
    """
    required = None if tier is None else ConformanceTier.coerce(tier)

    def _gate(inst: KernelSet, from_env: bool) -> KernelSet:
        if required is ConformanceTier.EXACT and inst.tier is not ConformanceTier.EXACT:
            msg = (
                f"backend {inst.name!r} is declared {inst.tier.value!r} but the "
                f"caller requires the exact (byte-identity) conformance tier; "
                f"exact-tier backends: {list_backends(tier=ConformanceTier.EXACT)}"
            )
            if from_env:
                raise ConfigurationError(msg, source=ENV_BACKEND)
            raise InvalidInputError(msg)
        return inst

    if isinstance(spec, KernelSet):
        return _gate(spec, from_env=False)
    from_env = False
    if spec is None:
        from_env = _DEFAULT_NAME is None and bool(
            os.environ.get(ENV_BACKEND, "").strip()
        )
        spec = default_backend_name()
    if not isinstance(spec, str):
        raise InvalidInputError(
            f"backend spec must be a name or KernelSet, got {type(spec).__name__}"
        )
    try:
        return _gate(get_backend(spec), from_env)
    except ConfigurationError:
        raise
    except InvalidInputError as exc:
        if from_env:
            raise ConfigurationError(str(exc), source=ENV_BACKEND) from exc
        raise


def resolve_backend_name(
    spec: Union[None, str, KernelSet] = None,
    *,
    tier: Union[None, ConformanceTier, str] = None,
) -> str:
    """Like :func:`resolve_backend` but returns the registry name — the
    pickle-safe form the parallel engine ships to pool workers."""
    return resolve_backend(spec, tier=tier).name


@contextmanager
def use_backend(name: Optional[str]):
    """Scoped :func:`set_default_backend`; yields the active kernel set."""
    previous = set_default_backend(name)
    try:
        yield resolve_backend(None)
    finally:
        set_default_backend(previous)


# ---------------------------------------------------------------- in-tree
def _register_builtin_backends() -> None:
    from repro.backend.accel import NumbaKernelSet, NumbaParKernelSet, numba_available
    from repro.backend.fragment import FragmentKernelSet
    from repro.backend.numpy_backend import NumpyKernelSet
    from repro.backend.pyloops import PyLoopsKernelSet

    register_backend(
        DEFAULT_BACKEND,
        NumpyKernelSet,
        description="vectorised NumPy reference (always available)",
        replace=True,
    )
    register_backend(
        "pyloops",
        PyLoopsKernelSet,
        description="pure-Python scalar loops — slow differential oracle",
        replace=True,
    )
    register_backend(
        "numba",
        NumbaKernelSet,
        available=numba_available,
        description="Numba-JIT scalar loops (requires the numba package)",
        replace=True,
    )
    register_backend(
        "numba-par",
        NumbaParKernelSet,
        available=numba_available,
        description=(
            "Numba prange+fastmath kernels — tier-2 fast-math "
            "(requires the numba package)"
        ),
        tier=ConformanceTier.FAST_MATH,
        replace=True,
    )
    register_backend(
        "fragment",
        FragmentKernelSet,
        description=(
            "batched 16-wide fragment accumulator modelling the "
            "tensor-core dense path — tier-2 fast-math"
        ),
        tier=ConformanceTier.FAST_MATH,
        replace=True,
    )


_register_builtin_backends()
