"""Invariant-lint framework: AST index, whole-program call graph, findings.

The dynamic half of this repo's correctness story — the parity lattice,
the scenario fuzzer, the service fault matrix — catches discipline
violations *after* they ship, at the cost of a full differential run.
This package is the static half: AST rules that encode the disciplines
those harnesses keep re-proving (seed every random source, invalidate on
every mapping mutation, tmp+``os.replace`` every durable write, never
block the event loop, keep the parity surface symmetric, keep the wire
protocol symmetric, release every resource) and flag violations at
review time, with ``file:line`` provenance.

The framework is name-based but **whole-program**:

* :class:`RepoIndex` parses every ``*.py`` under a root into
  :class:`ModuleInfo` records — functions with their qualified names,
  every call site as a dotted-name string (``self.rlb.invalidate``),
  attribute assignments (``self.rlb = ...``) and class attribute wiring from
  ``__init__`` (``self.rlb = RangeLookasideBuffer(...)``).
* :meth:`RepoIndex.global_graph` resolves calls **across modules**:
  ``from m import f`` / ``import m as alias`` aliasing, ``self.attr.m``
  through ``__init__`` wiring where the attribute's class lives in
  another module, and ``self.m`` through base classes imported from
  other modules.  The PR 9 graph was intra-module only, which left
  R2/R4/R5 blind exactly where the real bugs lived (the MimicOS→MMU
  shootdown broadcast, the service→store durability chain, the
  server↔client↔protocol surface); the whole-program graph removes
  those blind spots and is the only call graph.
* every function gets a cached :class:`EffectSummary` (RNG
  constructions, durable writes, invalidations,
  resource acquire/release, fork-hygiene calls), and
  :meth:`RepoIndex.transitive_effects` merges summaries over the
  reachable set via one SCC condensation pass — so "does this function,
  transitively, do X?" is an O(1) lookup after one linear pass over the
  tree, and a full ten-rule scan stays inside the CI latency budget.

Suppression is two-tier, both auditable in review:

* an inline pragma ``# lint-allow: R2 reason`` on the offending line
  (or the line above) suppresses one site with its rationale in the
  source; and
* a checked-in baseline (:mod:`repro.analysis.lint.baseline`)
  grandfathers findings by stable key — rule, path and symbol, but
  *not* line number, so unrelated edits never churn it.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Pragma format: ``# lint-allow: R1 why this site is exempt`` (several
#: rules may be listed, comma-separated).  The reason is not parsed but
#: its presence in the source is the point — the rationale lives next to
#: the exempted line and travels with it in review diffs.
_PRAGMA_RE = re.compile(r"#\s*lint-allow:\s*([A-Z0-9, ]+)")

#: A function anywhere in the scanned tree: ``(relpath, qualname)``.
GlobalId = Tuple[str, str]

#: Call tails that *perform* invalidation (R2 witnesses; also used to
#: exclude invalidation routines from the mutation-site checks).
INVALIDATION_TAIL_RE = re.compile(r"(invalidate|flush|shootdown)")
#: Narrower witness for owned translation caches (accepting ``.clear()``
#: would let any dict housekeeping pass as an invalidation).
CACHE_INVALIDATION_TAIL_RE = re.compile(r"(invalidate|flush)")
#: Call tails that release a held resource (R9).
RELEASE_TAIL_RE = re.compile(r"^(close|terminate|kill|join|release|shutdown|"
                             r"cleanup|unlink)$")

#: Resolved call origins that acquire an OS resource (R9).  ``open`` is
#: matched as a bare builtin name; the rest resolve through imports.
RESOURCE_APIS = {
    "open": "open",
    "socket.socket": "socket.socket",
    "socket.create_connection": "socket.create_connection",
    "multiprocessing.Pool": "multiprocessing.Pool",
    "multiprocessing.pool.Pool": "multiprocessing.Pool",
}

#: Identifier fragments that mark a seed expression as derived from the
#: experiment identity (R6): config/point seeds, salts, forked streams,
#: crc-derived per-point seeds.
_SEED_SOURCE_RE = re.compile(r"(seed|salt|fork|crc32|entropy)", re.IGNORECASE)


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file, line and symbol."""

    rule: str          #: rule id, e.g. ``"R2"``
    path: str          #: posix path relative to the scan root
    line: int          #: 1-based source line
    symbol: str        #: qualified name of the offending function/class
    message: str       #: human-readable description
    detail: str = ""   #: short stable slug distinguishing findings in one symbol
    severity: str = SEVERITY_ERROR

    @property
    def key(self) -> str:
        """Stable identity for the baseline.

        Line numbers are deliberately excluded so a baselined finding
        survives unrelated edits above it; two distinct violations inside
        one symbol are separated by ``detail`` (usually the offending
        call or counter name).
        """
        return f"{self.rule}:{self.path}:{self.symbol}:{self.detail}"

    def render(self) -> str:
        return (f"{self.path}:{self.line}: {self.rule} [{self.severity}] "
                f"{self.message}")


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    dotted: str   #: best-effort dotted name, e.g. ``"self.rlb.invalidate"``
    tail: str     #: terminal attribute/name, e.g. ``"invalidate"``
    line: int


@dataclass(frozen=True)
class AttrEvent:
    """An attribute assignment (``self.rlb = ...``)."""

    kind: str     #: ``"assign"``
    dotted: str   #: dotted target, e.g. ``"self.rlb"``
    line: int


@dataclass(frozen=True)
class RNGConstruct:
    """One ``DeterministicRNG(...)`` / ``random.Random(...)`` site (R6)."""

    line: int
    callee: str      #: resolved constructor origin
    seed_kind: str   #: ``"missing"`` | ``"literal"`` | ``"derived"`` | ``"opaque"``
    seed_repr: str   #: normalised source of the seed expression ("" if missing)


@dataclass(frozen=True)
class ResourceEvent:
    """One resource acquisition and how its release is guaranteed (R9)."""

    line: int
    api: str          #: canonical acquire API, e.g. ``"socket.socket"``
    disposition: str  #: ``"with"`` | ``"self"`` | ``"returned"`` |
                      #: ``"guarded"`` | ``"call-arg"`` | ``"bare"``


@dataclass(frozen=True)
class JournalAppend:
    """One journal append with the string constants in its arguments (R7)."""

    line: int
    strings: Tuple[str, ...]


@dataclass(frozen=True)
class EffectSummary:
    """Direct (non-transitive) effects of one function body.

    Computed once per function and cached on the index; the transitive
    closure over the whole-program graph is merged separately by
    :meth:`RepoIndex.transitive_effects`.
    """

    invalidation: Optional[int]        #: invalidate/flush/shootdown call or version bump
    cache_invalidation: Optional[int]  #: invalidate/flush call (owned-cache witness)
    rng_constructs: Tuple[RNGConstruct, ...]
    journal_appends: Tuple[JournalAppend, ...]
    store_writes: Tuple[int, ...]      #: store.put / atomic_write_* lines
    resources: Tuple[ResourceEvent, ...]
    releases: Tuple[int, ...]          #: close/terminate/join/... lines
    wakeup_detach: Optional[int]       #: signal.set_wakeup_fd line
    signal_reset: Optional[int]        #: signal.signal line
    fd_close: Optional[int]            #: os.close line


@dataclass
class TransitiveEffects:
    """Effects merged over everything reachable from one function.

    Witness fields carry ``(global_id, line)`` of the first function on
    the BFS frontier exhibiting the effect, for ``file:line`` provenance
    in findings.
    """

    invalidation: Optional[Tuple[GlobalId, int]] = None
    cache_invalidation: Optional[Tuple[GlobalId, int]] = None
    journal_append: Optional[Tuple[GlobalId, int]] = None
    store_write: Optional[Tuple[GlobalId, int]] = None
    wakeup_detach: Optional[Tuple[GlobalId, int]] = None
    signal_reset: Optional[Tuple[GlobalId, int]] = None
    fd_close: Optional[Tuple[GlobalId, int]] = None


@dataclass
class FunctionInfo:
    """One ``def``/``async def`` with its calls and attribute events."""

    name: str
    qualname: str
    line: int
    is_async: bool
    class_name: Optional[str]
    node: ast.AST
    calls: List[CallSite] = field(default_factory=list)
    events: List[AttrEvent] = field(default_factory=list)
    #: parameter name -> annotated type (dotted string), for
    #: annotation-guided method resolution (``process.munmap()`` where
    #: ``process: Process`` is a parameter).
    param_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ClassInfo:
    """One class: methods, bases, and the ``__init__`` attribute wiring."""

    name: str
    line: int
    bases: List[str]
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.X = K(...)`` in ``__init__`` where ``K`` is a bare name —
    #: the wiring R2 uses to find owned translation caches.  ``K`` may be
    #: defined locally or imported; the global graph resolves both.
    attr_classes: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Parsed view of one source file."""

    path: Path
    relpath: str
    tree: ast.Module
    #: dotted module name relative to the scan root, e.g.
    #: ``"experiments.store"`` (``__init__.py`` maps to its package).
    dotted: str = ""
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: line -> set of rule ids allowed on that line by a pragma comment
    pragmas: Dict[int, Set[str]] = field(default_factory=dict)
    #: top-level module names imported (``import x``, ``import x.y``)
    imports: Set[str] = field(default_factory=set)
    #: local name -> dotted origin for ``from m import n [as a]``
    from_imports: Dict[str, str] = field(default_factory=dict)
    #: local alias -> dotted module for ``import x.y [as a]``
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: module-level ``NAME = (...)`` string-tuple constants (parity
    #: exclusion lists, the protocol verb inventory, and friends)
    string_constants: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted rendering of a call target / attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{dotted_name(node.value)}.{node.attr}"
    if isinstance(node, ast.Call):
        return f"{dotted_name(node.func)}()"
    if isinstance(node, ast.Subscript):
        return f"{dotted_name(node.value)}[]"
    return "?"


def module_dotted(relpath: str) -> str:
    """Dotted module name of a scanned file, relative to the scan root."""
    parts = relpath.split("/")
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    return ".".join(parts)


def _annotation_dotted(annotation: Optional[ast.AST]) -> Optional[str]:
    """Dotted type name from an annotation expression, or ``None``.

    Handles bare names (``Process``), dotted names (``vma.VMAManager``),
    string annotations (``"Process"``), and unwraps a single
    ``Optional[...]`` layer — anything fancier (unions, generics of
    generics) is beyond name-based resolution and returns ``None``.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) \
            and isinstance(annotation.value, str):
        text = annotation.value.strip()
        return text if text.replace(".", "").replace("_", "").isalnum() \
            else None
    if isinstance(annotation, (ast.Name, ast.Attribute)):
        dotted = dotted_name(annotation)
        return dotted if "?" not in dotted else None
    if isinstance(annotation, ast.Subscript):
        base = dotted_name(annotation.value)
        if base.rsplit(".", 1)[-1] == "Optional":
            return _annotation_dotted(annotation.slice)
    return None


def _param_types(node: ast.AST) -> Dict[str, str]:
    args = getattr(node, "args", None)
    if args is None:
        return {}
    types: Dict[str, str] = {}
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        dotted = _annotation_dotted(arg.annotation)
        if dotted is not None:
            types[arg.arg] = dotted
    return types


def _parse_pragmas(source: str) -> Dict[int, Set[str]]:
    pragmas: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(token.string)
            if match is None:
                continue
            rules = {part.strip() for part in match.group(1).split(",")
                     if part.strip()}
            pragmas.setdefault(token.start[0], set()).update(rules)
    except tokenize.TokenError:
        pass
    return pragmas


class _ModuleVisitor(ast.NodeVisitor):
    """Single-pass collector for functions, classes, calls and events."""

    def __init__(self, info: ModuleInfo):
        self.info = info
        self._class_stack: List[ClassInfo] = []
        self._func_stack: List[FunctionInfo] = []

    # -- imports ------------------------------------------------------- #
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.info.imports.add(alias.name.split(".")[0])
            local = alias.asname or alias.name.split(".")[0]
            # `import x.y` binds `x`; `import x.y as z` binds `z` to x.y.
            self.info.module_aliases[local] = (alias.name if alias.asname
                                               else alias.name.split(".")[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            # Relative import: resolve against this module's package.
            package = self.info.dotted.split(".")
            if not self.info.relpath.endswith("__init__.py"):
                package = package[:-1]
            package = package[:len(package) - (node.level - 1)] \
                if node.level > 1 else package
            base = ".".join(p for p in package if p)
            origin = f"{base}.{node.module}" if node.module and base \
                else (node.module or base)
        else:
            origin = node.module or ""
        if not origin:
            return
        self.info.imports.add(origin.split(".")[0])
        for alias in node.names:
            local = alias.asname or alias.name
            self.info.from_imports[local] = f"{origin}.{alias.name}"

    # -- classes / functions ------------------------------------------- #
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        cls = ClassInfo(name=node.name, line=node.lineno,
                        bases=[dotted_name(base) for base in node.bases])
        self.info.classes[node.name] = cls
        self._class_stack.append(cls)
        self.generic_visit(node)
        self._class_stack.pop()

    def _enter_function(self, node, is_async: bool) -> None:
        cls = self._class_stack[-1] if self._class_stack else None
        # Nested functions get a dotted qualname; only the top level of a
        # class is treated as a method (matching runtime semantics).
        if self._func_stack:
            qualname = f"{self._func_stack[-1].qualname}.{node.name}"
            method_of = None
        elif cls is not None:
            qualname = f"{cls.name}.{node.name}"
            method_of = cls
        else:
            qualname = node.name
            method_of = None
        info = FunctionInfo(name=node.name, qualname=qualname,
                            line=node.lineno, is_async=is_async,
                            class_name=cls.name if cls else None, node=node,
                            param_types=_param_types(node))
        self.info.functions[qualname] = info
        if method_of is not None:
            method_of.methods[node.name] = info
        self._func_stack.append(info)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node, is_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node, is_async=True)

    # -- calls / events ------------------------------------------------ #
    def visit_Call(self, node: ast.Call) -> None:
        if self._func_stack:
            dotted = dotted_name(node.func)
            tail = dotted.rsplit(".", 1)[-1]
            self._func_stack[-1].calls.append(
                CallSite(dotted=dotted, tail=tail, line=node.lineno))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        # Dataclass-style class attributes: `vmas: VMAManager = field(...)`
        # at class level wires the attribute's class exactly like a
        # `self.vmas = VMAManager(...)` in __init__ would.
        if (self._class_stack and not self._func_stack
                and isinstance(node.target, ast.Name)):
            dotted = _annotation_dotted(node.annotation)
            if dotted is not None:
                self._class_stack[-1].attr_classes[node.target.id] = dotted
        if self._func_stack and node.value is not None \
                and isinstance(node.target, (ast.Attribute, ast.Subscript)):
            self._func_stack[-1].events.append(
                AttrEvent(kind="assign", dotted=dotted_name(node.target),
                          line=node.lineno))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # Module-level string-tuple constants (e.g. HOST_ONLY_KEYS, VERBS).
        if (not self._func_stack and not self._class_stack
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, (ast.Tuple, ast.List))):
            elements = node.value.elts
            if elements and all(isinstance(el, ast.Constant)
                                and isinstance(el.value, str)
                                for el in elements):
                self.info.string_constants[node.targets[0].id] = tuple(
                    el.value for el in elements)
        if self._func_stack:
            func = self._func_stack[-1]
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    func.events.append(
                        AttrEvent(kind="assign", dotted=dotted_name(target),
                                  line=node.lineno))
            # __init__ wiring: self.X = K(...).
            if (func.name == "__init__" and self._class_stack
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and isinstance(node.targets[0].value, ast.Name)
                    and node.targets[0].value.id == "self"
                    and isinstance(node.value, ast.Call)):
                if isinstance(node.value.func, ast.Name):
                    self._class_stack[-1].attr_classes[node.targets[0].attr] = \
                        node.value.func.id
        self.generic_visit(node)


def parse_module(path: Path, relpath: str) -> Optional[ModuleInfo]:
    """Parse one file into a :class:`ModuleInfo` (``None`` on syntax error)."""
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError):
        return None
    info = ModuleInfo(path=path, relpath=relpath, tree=tree,
                      dotted=module_dotted(relpath),
                      pragmas=_parse_pragmas(source))
    _ModuleVisitor(info).visit(tree)
    return info


# --------------------------------------------------------------------- #
# Effect-summary extraction
# --------------------------------------------------------------------- #
def _call_origin(module: ModuleInfo, dotted: str) -> str:
    """Resolve a call's dotted name through the module's import aliases."""
    head = dotted.split(".", 1)[0]
    if dotted in module.from_imports:
        return module.from_imports[dotted]
    if head in module.from_imports and "." in dotted:
        return module.from_imports[head] + dotted[len(head):]
    if head in module.module_aliases and "." in dotted:
        return module.module_aliases[head] + dotted[len(head):]
    return dotted


def _string_constants_in(node: ast.AST) -> Tuple[str, ...]:
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.append(sub.value)
    return tuple(out)


def _classify_seed(call: ast.Call) -> Tuple[str, str]:
    """Classify the seed argument of an RNG construction (R6)."""
    seed: Optional[ast.AST] = None
    if call.args:
        seed = call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "seed":
            seed = keyword.value
    if seed is None:
        return "missing", ""
    try:
        rendered = ast.unparse(seed)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        rendered = ast.dump(seed)
    if isinstance(seed, ast.Constant):
        return "literal", rendered
    for sub in ast.walk(seed):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Call):
            name = dotted_name(sub.func).rsplit(".", 1)[-1]
        if name is not None and _SEED_SOURCE_RE.search(name):
            return "derived", rendered
    return "opaque", rendered


def _rng_constructs(module: ModuleInfo,
                    func: FunctionInfo) -> Tuple[RNGConstruct, ...]:
    out: List[RNGConstruct] = []
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call):
            continue
        origin = _call_origin(module, dotted_name(node.func))
        tail = origin.rsplit(".", 1)[-1]
        if tail == "DeterministicRNG" or origin == "random.Random" \
                or origin.endswith(".random.Random"):
            kind, rendered = _classify_seed(node)
            out.append(RNGConstruct(line=node.lineno, callee=tail,
                                    seed_kind=kind, seed_repr=rendered))
    return tuple(out)


def _resource_events(module: ModuleInfo,
                     func: FunctionInfo) -> Tuple[ResourceEvent, ...]:
    node = func.node
    with_calls: Set[int] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.With, ast.AsyncWith)):
            for item in sub.items:
                if isinstance(item.context_expr, ast.Call):
                    with_calls.add(id(item.context_expr))
    returned_names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Return) and isinstance(sub.value, ast.Name):
            returned_names.add(sub.value.id)
    # A try whose finally (or except handler) releases something covers
    # the whole function — path-sensitive span tracking is not worth the
    # false positives for this repo's function sizes.
    guarded = False
    for sub in ast.walk(node):
        if isinstance(sub, ast.Try):
            cleanup = list(sub.finalbody)
            for handler in sub.handlers:
                cleanup.extend(handler.body)
            for stmt in cleanup:
                for call in ast.walk(stmt):
                    if (isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Attribute)
                            and RELEASE_TAIL_RE.match(call.func.attr)):
                        guarded = True
    assigns: Dict[int, Tuple[str, str]] = {}
    self_aliased: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            target = sub.targets[0]
            if isinstance(sub.value, ast.Call):
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    assigns[id(sub.value)] = ("self", target.attr)
                elif isinstance(target, ast.Name):
                    assigns[id(sub.value)] = ("local", target.id)
            elif (isinstance(sub.value, ast.Name)
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                # `sock = create(...)` then `self._sock = sock`: the
                # object escapes into owner state, whose close() owns it.
                self_aliased.add(sub.value.id)
    arg_calls: Set[int] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            for child in list(sub.args) + [kw.value for kw in sub.keywords]:
                for call in ast.walk(child):
                    if isinstance(call, ast.Call):
                        arg_calls.add(id(call))
    events: List[ResourceEvent] = []
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        origin = _call_origin(module, dotted_name(sub.func))
        api = RESOURCE_APIS.get(origin)
        if api is None:
            continue
        owner, name = assigns.get(id(sub), ("", ""))
        if id(sub) in with_calls:
            disposition = "with"
        elif owner == "self" or (owner == "local" and name in self_aliased):
            disposition = "self"
        elif owner == "local" and name in returned_names:
            disposition = "returned"
        elif guarded:
            disposition = "guarded"
        elif id(sub) in arg_calls:
            disposition = "call-arg"
        else:
            disposition = "bare"
        events.append(ResourceEvent(line=sub.lineno, api=api,
                                    disposition=disposition))
    return tuple(events)


def summarize_function(module: ModuleInfo, func: FunctionInfo) -> EffectSummary:
    """Direct effects of one function body (cached by the index)."""
    invalidation: Optional[int] = None
    cache_invalidation: Optional[int] = None
    journal_appends: List[JournalAppend] = []
    store_writes: List[int] = []
    releases: List[int] = []
    wakeup_detach: Optional[int] = None
    signal_reset: Optional[int] = None
    fd_close: Optional[int] = None

    for call in func.calls:
        if invalidation is None and INVALIDATION_TAIL_RE.search(call.tail):
            invalidation = call.line
        if cache_invalidation is None \
                and CACHE_INVALIDATION_TAIL_RE.search(call.tail):
            cache_invalidation = call.line
        if RELEASE_TAIL_RE.match(call.tail):
            releases.append(call.line)
        origin = _call_origin(module, call.dotted)
        if origin == "signal.set_wakeup_fd" and wakeup_detach is None:
            wakeup_detach = call.line
        elif origin == "signal.signal" and signal_reset is None:
            signal_reset = call.line
        elif origin == "os.close" and fd_close is None:
            fd_close = call.line
        if call.tail in ("atomic_write_json", "atomic_write_text") \
                or (call.tail == "put" and "store" in call.dotted):
            store_writes.append(call.line)
    # Journal appends need the call node's argument subtree for the event
    # strings; list `.append` noise is excluded by requiring a journal-ish
    # receiver (or the `_journal` indirection helper).
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        tail = dotted.rsplit(".", 1)[-1]
        journalish = (tail == "append" and "journal" in dotted.lower()) \
            or tail == "_journal"
        if journalish:
            strings: List[str] = []
            for child in list(node.args) + [kw.value for kw in node.keywords]:
                strings.extend(_string_constants_in(child))
            journal_appends.append(JournalAppend(line=node.lineno,
                                                 strings=tuple(strings)))

    return EffectSummary(
        invalidation=invalidation,
        cache_invalidation=cache_invalidation,
        rng_constructs=_rng_constructs(module, func),
        journal_appends=tuple(journal_appends),
        store_writes=tuple(store_writes),
        resources=_resource_events(module, func),
        releases=tuple(releases),
        wakeup_detach=wakeup_detach,
        signal_reset=signal_reset,
        fd_close=fd_close,
    )


class RepoIndex:
    """Every parsed module under one scan root, plus the whole-program call graph."""

    def __init__(self, root: Path, modules: Dict[str, ModuleInfo]):
        self.root = root
        self.modules = modules
        self._by_dotted: Dict[str, str] = {
            info.dotted: relpath for relpath, info in modules.items()
            if info.dotted}
        self._global_graph: Optional[Dict[GlobalId, Set[GlobalId]]] = None
        self._reverse_graph: Optional[Dict[GlobalId, Set[GlobalId]]] = None
        self._summaries: Dict[GlobalId, EffectSummary] = {}
        self._transitive: Optional[Dict[GlobalId, TransitiveEffects]] = None

    @classmethod
    def build(cls, root: Path) -> "RepoIndex":
        root = Path(root)
        modules: Dict[str, ModuleInfo] = {}
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            relpath = path.relative_to(root).as_posix()
            info = parse_module(path, relpath)
            if info is not None:
                modules[relpath] = info
        return cls(root, modules)

    # -- module / symbol resolution ------------------------------------ #
    def resolve_module(self, dotted: str) -> Optional[str]:
        """Relpath of the scanned module a dotted import refers to.

        Imports name modules from the *package* root (``repro.mmu.tlb``)
        while the index keys off the *scan* root (``mmu/tlb.py``), so
        resolution is longest-suffix: the scanned module whose dotted
        name matches the import exactly or as a trailing component run.
        """
        if not dotted:
            return None
        direct = self._by_dotted.get(dotted)
        if direct is not None:
            return direct
        best: Optional[str] = None
        best_len = 0
        for mod_dotted, relpath in self._by_dotted.items():
            if len(mod_dotted) > best_len \
                    and dotted.endswith("." + mod_dotted):
                best, best_len = relpath, len(mod_dotted)
        return best

    def _resolve_symbol(self, module: ModuleInfo,
                        name: str) -> Optional[Tuple[ModuleInfo, str]]:
        """Follow one ``from m import name`` link to its defining module."""
        origin = module.from_imports.get(name)
        if origin is None:
            return None
        # `from pkg import mod` binds a module, not a symbol.
        as_module = self.resolve_module(origin)
        if as_module is not None:
            return None
        mod_part, _, symbol = origin.rpartition(".")
        relpath = self.resolve_module(mod_part)
        if relpath is None:
            return None
        return self.modules[relpath], symbol

    def _class_location(self, module: ModuleInfo,
                        name: str) -> Optional[Tuple[ModuleInfo, str]]:
        """Defining module of a class referenced by (possibly dotted) name."""
        if "." in name:
            head, cls = name.rsplit(".", 1)
            imported = self._imported_module(module, head)
            if imported is not None and cls in imported.classes:
                return imported, cls
            return None
        if name in module.classes:
            return module, name
        resolved = self._resolve_symbol(module, name)
        if resolved is not None:
            target_module, symbol = resolved
            if symbol in target_module.classes:
                return target_module, symbol
        return None

    def _imported_module(self, module: ModuleInfo,
                         alias: str) -> Optional[ModuleInfo]:
        """Module bound to a local name (``from pkg import mod`` or
        ``import pkg.mod as alias``)."""
        origin = module.from_imports.get(alias) \
            or module.module_aliases.get(alias)
        if origin is None:
            return None
        relpath = self.resolve_module(origin)
        return self.modules[relpath] if relpath is not None else None

    def function(self, gid: GlobalId) -> Optional[FunctionInfo]:
        module = self.modules.get(gid[0])
        return module.functions.get(gid[1]) if module is not None else None

    # -- whole-program call graph -------------------------------------- #
    def _method_global(self, module: ModuleInfo, class_name: str,
                       method: str) -> Optional[GlobalId]:
        """Resolve ``Class.method`` through a hierarchy that may cross
        module boundaries (bases imported from other modules)."""
        seen: Set[Tuple[str, str]] = set()
        queue: List[Tuple[ModuleInfo, str]] = [(module, class_name)]
        while queue:
            mod, name = queue.pop(0)
            if (mod.relpath, name) in seen:
                continue
            seen.add((mod.relpath, name))
            cls = mod.classes.get(name)
            if cls is None:
                located = self._class_location(mod, name)
                if located is None:
                    continue
                mod, name = located
                if (mod.relpath, name) in seen:
                    continue
                seen.add((mod.relpath, name))
                cls = mod.classes.get(name)
                if cls is None:
                    continue
            if method in cls.methods:
                return (mod.relpath, f"{name}.{method}")
            for base in cls.bases:
                queue.append((mod, base.rsplit(".", 1)[-1]))
        return None

    def _resolve_global(self, module: ModuleInfo, func: FunctionInfo,
                        call: CallSite) -> Optional[GlobalId]:
        parts = call.dotted.split(".")
        if "?" in parts or any("(" in part or "[" in part for part in parts):
            return None
        # self.m() and self.attr.m(): method resolution may cross modules
        # through imported base classes / imported attribute classes.
        if parts[0] == "self" and func.class_name:
            if len(parts) == 2:
                return self._method_global(module, func.class_name, parts[1])
            if len(parts) == 3:
                cls = module.classes.get(func.class_name)
                owner = cls.attr_classes.get(parts[1]) if cls else None
                if owner is not None:
                    located = self._class_location(module, owner)
                    if located is not None:
                        return self._method_global(located[0], located[1],
                                                   parts[2])
            return None
        if len(parts) == 1:
            name = parts[0]
            if name in module.functions:
                return (module.relpath, name)
            if name in module.classes:
                return self._method_global(module, name, "__init__")
            resolved = self._resolve_symbol(module, name)
            if resolved is not None:
                target_module, symbol = resolved
                if symbol in target_module.functions:
                    return (target_module.relpath, symbol)
                if symbol in target_module.classes:
                    return self._method_global(target_module, symbol,
                                               "__init__")
            return None
        # Annotation-guided: `process.munmap()` where `process: Process`
        # is a parameter of the calling function.
        if len(parts) == 2 and parts[0] in func.param_types:
            located = self._class_location(module,
                                           func.param_types[parts[0]])
            if located is not None:
                return self._method_global(located[0], located[1], parts[1])
            return None
        # Class.method / alias.f / alias.Class(...)
        head, rest = parts[0], parts[1:]
        located = self._class_location(module, head)
        if located is not None and len(rest) == 1:
            return self._method_global(located[0], located[1], rest[0])
        target_module = self._imported_module(module, head)
        if target_module is not None:
            if len(rest) == 1:
                name = rest[0]
                if name in target_module.functions:
                    return (target_module.relpath, name)
                if name in target_module.classes:
                    return self._method_global(target_module, name,
                                               "__init__")
            elif len(rest) == 2 and rest[0] in target_module.classes:
                return self._method_global(target_module, rest[0], rest[1])
        return None

    def global_graph(self) -> Dict[GlobalId, Set[GlobalId]]:
        """``(relpath, qualname) -> callees`` across the whole tree."""
        if self._global_graph is None:
            graph: Dict[GlobalId, Set[GlobalId]] = {}
            for relpath, module in self.modules.items():
                for qualname, func in module.functions.items():
                    callees: Set[GlobalId] = set()
                    for call in func.calls:
                        target = self._resolve_global(module, func, call)
                        if target is not None:
                            callees.add(target)
                    graph[(relpath, qualname)] = callees
            self._global_graph = graph
        return self._global_graph

    def reverse_graph(self) -> Dict[GlobalId, Set[GlobalId]]:
        """``callee -> callers`` over :meth:`global_graph`."""
        if self._reverse_graph is None:
            reverse: Dict[GlobalId, Set[GlobalId]] = {}
            for caller, callees in self.global_graph().items():
                for callee in callees:
                    reverse.setdefault(callee, set()).add(caller)
            self._reverse_graph = reverse
        return self._reverse_graph

    # -- effect summaries ---------------------------------------------- #
    def effects(self, relpath: str, qualname: str) -> EffectSummary:
        """Direct (cached) effect summary of one function."""
        gid = (relpath, qualname)
        summary = self._summaries.get(gid)
        if summary is None:
            module = self.modules[relpath]
            summary = summarize_function(module, module.functions[qualname])
            self._summaries[gid] = summary
        return summary

    def transitive_effects(self, relpath: str,
                           qualname: str) -> TransitiveEffects:
        """Effects merged over everything reachable in the global graph.

        Computed for the whole tree in one pass: Tarjan SCC condensation
        (iterative), then a reverse-topological sweep that merges each
        component's direct summaries with its successors' transitive
        ones.  Every subsequent query is a dict lookup, which is what
        keeps a full ten-rule scan linear in the size of the tree.
        """
        if self._transitive is None:
            self._transitive = self._compute_transitive()
        effects = self._transitive.get((relpath, qualname))
        if effects is None:
            # Functions absent from the graph (e.g. queried by a rule
            # against a symbol the resolver never saw) fall back to
            # their direct summary.
            effects = TransitiveEffects()
            self._merge_direct(effects, (relpath, qualname))
        return effects

    def _merge_direct(self, effects: TransitiveEffects,
                      gid: GlobalId) -> None:
        if self.function(gid) is None:
            return
        summary = self.effects(*gid)
        if effects.invalidation is None and summary.invalidation is not None:
            effects.invalidation = (gid, summary.invalidation)
        if effects.cache_invalidation is None \
                and summary.cache_invalidation is not None:
            effects.cache_invalidation = (gid, summary.cache_invalidation)
        if effects.journal_append is None and summary.journal_appends:
            effects.journal_append = (gid, summary.journal_appends[0].line)
        if effects.store_write is None and summary.store_writes:
            effects.store_write = (gid, summary.store_writes[0])
        if effects.wakeup_detach is None and summary.wakeup_detach is not None:
            effects.wakeup_detach = (gid, summary.wakeup_detach)
        if effects.signal_reset is None and summary.signal_reset is not None:
            effects.signal_reset = (gid, summary.signal_reset)
        if effects.fd_close is None and summary.fd_close is not None:
            effects.fd_close = (gid, summary.fd_close)

    @staticmethod
    def _merge_transitive(target: TransitiveEffects,
                          other: TransitiveEffects) -> None:
        for attr in ("invalidation", "cache_invalidation", "journal_append",
                     "store_write", "wakeup_detach", "signal_reset",
                     "fd_close"):
            if getattr(target, attr) is None \
                    and getattr(other, attr) is not None:
                setattr(target, attr, getattr(other, attr))

    def _compute_transitive(self) -> Dict[GlobalId, TransitiveEffects]:
        graph = self.global_graph()
        # Iterative Tarjan SCC (the tree is too deep for recursion).
        index_counter = 0
        stack: List[GlobalId] = []
        on_stack: Set[GlobalId] = set()
        indices: Dict[GlobalId, int] = {}
        lowlink: Dict[GlobalId, int] = {}
        component_of: Dict[GlobalId, int] = {}
        components: List[List[GlobalId]] = []

        for root in graph:
            if root in indices:
                continue
            work: List[Tuple[GlobalId, Iterable[GlobalId]]] = \
                [(root, iter(sorted(graph.get(root, ()))))]
            indices[root] = lowlink[root] = index_counter
            index_counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for succ in it:
                    if succ not in graph:
                        continue
                    if succ not in indices:
                        indices[succ] = lowlink[succ] = index_counter
                        index_counter += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(sorted(graph.get(succ, ())))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], indices[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == indices[node]:
                    component: List[GlobalId] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component_of[member] = len(components)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)

        # Tarjan emits components in reverse topological order: every
        # successor component is finished before its predecessors, so one
        # forward sweep over `components` merges bottom-up.
        component_effects: List[TransitiveEffects] = []
        for component in components:
            effects = TransitiveEffects()
            for gid in component:
                self._merge_direct(effects, gid)
            successor_components: Set[int] = set()
            for gid in component:
                for succ in graph.get(gid, ()):
                    succ_comp = component_of.get(succ)
                    if succ_comp is not None \
                            and succ_comp != component_of[gid]:
                        successor_components.add(succ_comp)
            for succ_comp in successor_components:
                self._merge_transitive(effects, component_effects[succ_comp])
            component_effects.append(effects)

        return {gid: component_effects[comp]
                for gid, comp in component_of.items()}

    # -- reachability -------------------------------------------------- #
    def reaches_global(self, relpath: str, start: str,
                       predicate: Callable[[ModuleInfo, FunctionInfo],
                                           Optional[int]],
                       ) -> Optional[Tuple[str, str, int]]:
        """BFS the whole-program call graph from ``start``.

        ``predicate`` inspects one function *with its defining module*
        and returns a witness line (or ``None``).  Returns ``(relpath,
        qualname, line)`` of the first function satisfying it, or
        ``None`` if unreachable.
        """
        graph = self.global_graph()
        seen: Set[GlobalId] = set()
        queue: List[GlobalId] = [(relpath, start)]
        while queue:
            gid = queue.pop(0)
            if gid in seen:
                continue
            seen.add(gid)
            module = self.modules.get(gid[0])
            func = module.functions.get(gid[1]) if module else None
            if func is None:
                continue
            witness = predicate(module, func)
            if witness is not None:
                return gid[0], gid[1], witness
            queue.extend(sorted(graph.get(gid, ())))
        return None

    # -- cross-module lookups ------------------------------------------ #
    def find_string_constant(self, name: str) -> Tuple[str, ...]:
        """The first module-level string tuple named ``name``, or empty."""
        for module in self.modules.values():
            if name in module.string_constants:
                return module.string_constants[name]
        return ()

    def find_functions(self, name: str) -> List[Tuple[ModuleInfo, FunctionInfo]]:
        """Every function (any module) whose bare name is ``name``."""
        matches = []
        for module in self.modules.values():
            for func in module.functions.values():
                if func.name == name:
                    matches.append((module, func))
        return matches


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id`, :attr:`name`, :attr:`description`
    (one line, shown by ``--list-rules``) and implement :meth:`check`.
    """

    rule_id = "R0"
    name = "base"
    description = ""

    def check(self, index: RepoIndex) -> List[Finding]:
        raise NotImplementedError


def in_scope(relpath: str, prefixes: Sequence[str]) -> bool:
    """True when ``relpath`` falls under one of the scope prefixes.

    The leading ``repro/`` package directory is optional so the same
    rule scopes work against the real tree (scanned from ``src/``, paths
    like ``repro/mimicos/kernel.py``) and against fixture trees (paths
    like ``mimicos/kernel.py``).
    """
    trimmed = relpath[len("repro/"):] if relpath.startswith("repro/") else relpath
    return any(trimmed == prefix or trimmed.startswith(prefix)
               for prefix in prefixes)


@dataclass
class LintReport:
    """Outcome of one lint pass, before baseline application."""

    findings: List[Finding]
    suppressed: List[Finding]     #: dropped by an inline ``lint-allow`` pragma
    files_scanned: int
    rules_run: List[str]

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


def run_rules(index: RepoIndex, rules: Sequence[Rule]) -> LintReport:
    """Run every rule, then apply inline pragmas.

    A pragma suppresses a finding when it sits on the finding's line or
    the line directly above it (so a rationale can ride its own line).
    """
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for rule in rules:
        for finding in rule.check(index):
            module = index.modules.get(finding.path)
            allowed: Set[str] = set()
            if module is not None:
                allowed |= module.pragmas.get(finding.line, set())
                allowed |= module.pragmas.get(finding.line - 1, set())
            if finding.rule in allowed:
                suppressed.append(finding)
            else:
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.detail))
    return LintReport(findings=findings, suppressed=suppressed,
                      files_scanned=len(index.modules),
                      rules_run=[rule.rule_id for rule in rules])
