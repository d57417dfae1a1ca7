"""The shared wire layer: one allowlist, one frame codec.

Two subsystems move untrusted bytes into this package and both route
through this module:

* the **analysis service** (:mod:`repro.service.server`) receives
  tagged JSON spec documents over HTTP and validates every
  ``__dataclass__``/``__callable__`` tag with :func:`validate_document`
  before :func:`repro.api.serialize.decode` imports anything;
* the **cluster protocol** (:mod:`repro.cluster.coordinator` /
  :mod:`repro.cluster.worker`) exchanges length-prefixed frames over
  TCP — a JSON header (validated with the *same* ``validate_document``)
  plus an optional pickle blob decoded through
  :func:`restricted_loads`, an unpickler that enforces the same
  module-root allowlist at ``find_class`` time.

**Trust boundary.**  Decoding a tagged document imports the dataclass
types and callables it names, and unpickling instantiates arbitrary
classes — both are unpickle-like by design.  Admission is therefore
checked *before* resolution: the module prefix must sit under an
allowlisted root (default ``("repro",)``), the qualname must be a
single top-level name (a dotted qualname getattr-walks from the module
object and would reach modules an allowed module merely imports —
``repro.x:os.system``), and the resolved object must actually be
*defined* under an allowed root.  A document or frame can therefore
only instantiate this package's own validated types, never
``os:system`` — however it is spelled.  Frame blobs additionally admit
an *exact* ``module:name`` list of container/ndarray machinery
(:data:`_INFRA_ALLOW`) — name-level, never whole modules, because
``builtins`` also defines ``eval``/``exec``/``__import__`` and
``numpy.load(allow_pickle=True)`` nests an unrestricted unpickle.  The
RCE regression tests (``tests/test_service.py`` and
``tests/test_cluster.py``) pin both entry points and both spellings.

Frame layout (all integers big-endian)::

    magic    4 bytes   b"RPW1" (protocol version rides in the magic)
    h_len    4 bytes   length of the JSON header
    b_len    8 bytes   length of the binary blob (0 for control frames)
    header   h_len     UTF-8 JSON object; always has a "type" key
    blob     b_len     pickle bytes (tasks, shard payloads)
"""

from __future__ import annotations

import dataclasses
import io
import json
import pickle
import struct
import types
from typing import Any, BinaryIO, Optional, Tuple

__all__ = [
    "PROTOCOL",
    "WireError",
    "BadRequest",
    "validate_document",
    "read_frame",
    "write_frame",
    "restricted_loads",
    "MAX_HEADER_BYTES",
    "MAX_BLOB_BYTES",
]

#: Cluster protocol version, negotiated in the hello/welcome handshake
#: and baked into the frame magic.
PROTOCOL = 1

_MAGIC = b"RPW1"
_PREFIX = struct.Struct(">4sIQ")

#: Frame-size ceilings: a malformed or hostile length prefix must not
#: make a peer allocate unbounded memory.
MAX_HEADER_BYTES = 1 << 20
MAX_BLOB_BYTES = 1 << 33

#: Tag keys whose values name importable objects (the codec's contract;
#: see :mod:`repro.api.serialize`).
_IMPORT_TAGS = ("__dataclass__", "__callable__")

#: Exact ``module -> {names}`` pairs every frame blob may reference *in
#: addition to* the configured allowlist roots: the containers and
#: array machinery that any pickled shard payload is built from.
#: Name-level on purpose — a blanket module root would admit
#: ``builtins:eval``/``builtins:__import__`` (arbitrary code via a
#: forged REDUCE opcode) or ``numpy:load`` (whose ``allow_pickle=True``
#: nests an *unrestricted* unpickle).  Nothing listed here is callable
#: with side effects.
_INFRA_ALLOW = {
    "builtins": frozenset({
        "bool", "bytearray", "bytes", "complex", "dict", "float",
        "frozenset", "int", "list", "object", "range", "set", "slice",
        "str", "tuple",
    }),
    "collections": frozenset({
        "Counter", "OrderedDict", "defaultdict", "deque",
    }),
    "copyreg": frozenset({"_reconstructor"}),
    "numpy": frozenset({"dtype", "ndarray"}),
    # numpy 2 moved numpy.core under numpy._core; pickles written by
    # either spelling resolve through the same objects.
    "numpy._core.multiarray": frozenset({"_reconstruct", "scalar"}),
    "numpy.core.multiarray": frozenset({"_reconstruct", "scalar"}),
    "numpy._core.numeric": frozenset({"_frombuffer"}),
    "numpy.core.numeric": frozenset({"_frombuffer"}),
}


class WireError(ValueError):
    """Malformed, oversized, or disallowed wire data."""


class BadRequest(WireError):
    """Client-side document problem (HTTP 400 at the service boundary)."""


def _under_allowed_root(module: str, allow_modules: Tuple[str, ...]) -> bool:
    return any(
        module == root or module.startswith(root + ".")
        for root in allow_modules
    )


def _validate_tag(tag: str, name: str, allow_modules: Tuple[str, ...]) -> None:
    """One ``module:qualname`` tag value's full admission check."""
    from repro.api.serialize import _resolve

    module, _, qualname = name.partition(":")
    if not _under_allowed_root(module, allow_modules):
        raise BadRequest(
            f"document imports {name!r}, outside the allowed "
            f"module roots {list(allow_modules)}"
        )
    if not qualname or "." in qualname:
        # encode() only ever emits top-level qualnames.  A dotted one
        # getattr-walks from the module object, which reaches modules an
        # allowed module merely *imports* — "repro.x:os.system" would
        # pass the prefix check above and resolve to os.system.
        raise BadRequest(
            f"document tag {name!r} is not a top-level name in its module"
        )
    try:
        obj = _resolve(name)
    except Exception as exc:
        raise BadRequest(f"cannot resolve document tag {name!r}: {exc}")
    defined_in = getattr(obj, "__module__", None)
    if not isinstance(defined_in, str) or not _under_allowed_root(
        defined_in, allow_modules
    ):
        # Catches objects re-exported into an allowed module from
        # elsewhere (stdlib modules/functions imported at its top level).
        raise BadRequest(
            f"document tag {name!r} resolves to an object defined in "
            f"{defined_in!r}, outside the allowed module roots "
            f"{list(allow_modules)}"
        )
    if tag == "__dataclass__" and not (
        isinstance(obj, type) and dataclasses.is_dataclass(obj)
    ):
        raise BadRequest(
            f"document tag {name!r} does not name a dataclass type"
        )


def validate_document(document: Any, allow_modules: Tuple[str, ...]) -> None:
    """Reject documents whose tags would resolve outside *allow_modules*.

    Runs on the raw parsed JSON before :func:`~repro.api.serialize.
    decode` touches it, walking every nesting level — a disallowed
    import buried inside a sweep axis value is as rejected as a
    top-level one.  Each tag must name an allowlisted module, carry an
    undotted qualname, and resolve to an object defined under an
    allowed root (see the module docstring's trust-boundary note).  A
    document nested past the interpreter's recursion limit is rejected
    as well.
    """
    try:
        _validate_walk(document, allow_modules)
    except RecursionError:
        raise BadRequest("document nests too deeply") from None


def _validate_walk(document: Any, allow_modules: Tuple[str, ...]) -> None:
    if isinstance(document, dict):
        for tag in _IMPORT_TAGS:
            if tag in document:
                _validate_tag(tag, str(document[tag]), allow_modules)
        for value in document.values():
            _validate_walk(value, allow_modules)
    elif isinstance(document, list):
        for value in document:
            _validate_walk(value, allow_modules)


# ----------------------------------------------------------------------
# Frame codec.
# ----------------------------------------------------------------------
def write_frame(sock, header: dict, blob: bytes = b"") -> None:
    """Send one length-prefixed frame (JSON header + optional blob)."""
    head = json.dumps(header, sort_keys=True).encode()
    if len(head) > MAX_HEADER_BYTES:
        raise WireError(f"frame header too large ({len(head)} bytes)")
    if len(blob) > MAX_BLOB_BYTES:
        raise WireError(f"frame blob too large ({len(blob)} bytes)")
    sock.sendall(_PREFIX.pack(_MAGIC, len(head), len(blob)) + head + blob)


def _recv_exact(sock, n: int, *, boundary: bool) -> Optional[bytes]:
    """Read exactly *n* bytes; ``None`` on a clean EOF at a boundary."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if boundary and got == 0:
                return None
            raise WireError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(
    sock, allow_modules: Tuple[str, ...] = ("repro",)
) -> Optional[Tuple[dict, bytes]]:
    """Read one frame, validating the header through the allowlist.

    Returns ``(header, blob)``, or ``None`` on a clean EOF between
    frames (the peer closed).  Raises :class:`WireError` on a truncated
    or malformed frame, a bad magic, an oversized length prefix, a
    header nested past the recursion limit, or a header whose tags fail
    :func:`validate_document`.  The *blob* is returned opaque — decode
    it with :func:`restricted_loads`.
    """
    prefix = _recv_exact(sock, _PREFIX.size, boundary=True)
    if prefix is None:
        return None
    magic, h_len, b_len = _PREFIX.unpack(prefix)
    if magic != _MAGIC:
        raise WireError(f"bad frame magic {magic!r} (expected {_MAGIC!r})")
    if h_len > MAX_HEADER_BYTES:
        raise WireError(f"frame header too large ({h_len} bytes)")
    if b_len > MAX_BLOB_BYTES:
        raise WireError(f"frame blob too large ({b_len} bytes)")
    head = _recv_exact(sock, h_len, boundary=False)
    blob = _recv_exact(sock, b_len, boundary=False) if b_len else b""
    try:
        header = json.loads(head)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise WireError(f"frame header is not valid JSON: {exc}")
    except RecursionError:
        raise WireError("frame header nests too deeply") from None
    if not isinstance(header, dict) or "type" not in header:
        raise WireError("frame header must be an object with a 'type' key")
    validate_document(header, allow_modules)
    return header, blob


# ----------------------------------------------------------------------
# Restricted pickle.
# ----------------------------------------------------------------------
class _AllowlistUnpickler(pickle.Unpickler):
    """``find_class`` gated by the same module-root allowlist.

    The pickle analogue of :func:`_validate_tag`: every global the
    stream names must live under an allowed root, carry an undotted
    name (a dotted one getattr-walks to imported modules), and resolve
    to a non-module object defined under an allowed root.
    """

    def __init__(self, file: BinaryIO, allow_modules: Tuple[str, ...]):
        super().__init__(file)
        self._allow = tuple(allow_modules)

    def find_class(self, module: str, name: str):
        label = f"{module}:{name}"
        if "." in name:
            raise WireError(
                f"frame pickle names {label!r}, not a top-level name "
                f"in its module"
            )
        if not _under_allowed_root(module, self._allow) \
                and name not in _INFRA_ALLOW.get(module, ()):
            raise WireError(
                f"frame pickle imports {label!r}, outside the allowed "
                f"module roots {list(self._allow)} and the infra "
                f"name allowlist"
            )
        obj = super().find_class(module, name)
        if isinstance(obj, types.ModuleType):
            raise WireError(f"frame pickle resolves {label!r} to a module")
        # Mirror _validate_tag exactly: an object whose provenance cannot
        # be established (__module__ missing or not a string) is rejected,
        # not waved through — the two halves of the trust boundary must
        # agree.
        defined_in = getattr(obj, "__module__", None)
        if not isinstance(defined_in, str) or not (
            _under_allowed_root(defined_in, self._allow)
            or name in _INFRA_ALLOW.get(defined_in, ())
        ):
            raise WireError(
                f"frame pickle tag {label!r} resolves to an object "
                f"defined in {defined_in!r}, outside the allowed roots"
            )
        return obj


def restricted_loads(blob: bytes, allow_modules: Tuple[str, ...] = ("repro",)):
    """Unpickle *blob* admitting only allowlisted module roots.

    Every failure — an allowlist rejection or a plain corrupt stream —
    surfaces as :class:`WireError`, so callers treat a bad blob exactly
    like a bad frame: reject the peer, never crash the dispatcher.
    """
    try:
        return _AllowlistUnpickler(io.BytesIO(blob), allow_modules).load()
    except WireError:
        raise
    except Exception as exc:
        raise WireError(f"frame pickle is malformed: {exc}") from exc
