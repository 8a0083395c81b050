"""Conservative AST dtype inference for NumPy-heavy code.

The checker's rules need to know, for an expression node, which NumPy
dtype the value would carry at runtime. Full type inference is neither
possible nor needed: the rules only fire when the inference is
*confident*, so every unknown construct maps to ``None`` (no opinion)
and can never cause a false positive on exotic code.

Dtypes are plain strings (``"int8"``, ``"uint64"``, ``"float64"``, ...)
plus three special labels:

* ``"pyint"`` / ``"pyfloat"`` — Python scalar literals, which NumPy
  promotes weakly (an int literal never widens an int8 array);
* ``"floatany"`` — some floating dtype (the ``FloatArray`` alias);
* ``"uintany"`` — some unsigned dtype (the ``AnyCodeArray`` alias).

Inference runs once per module (:class:`ModuleInference`): statements
are walked in program order, an environment of ``name -> dtype`` is
threaded through assignments, and every expression visited is memoized
by node identity so rules can ask ``dtype_of(node)`` afterwards.
"""

from __future__ import annotations

import ast

__all__ = ["ModuleInference", "is_8bit", "is_wide", "ALIAS_DTYPES", "DTYPE_NAMES"]

#: Recognized concrete NumPy dtype names (attribute names on ``np.``).
DTYPE_NAMES = {
    "int8": "int8",
    "uint8": "uint8",
    "int16": "int16",
    "uint16": "uint16",
    "int32": "int32",
    "uint32": "uint32",
    "int64": "int64",
    "uint64": "uint64",
    "intp": "int64",
    "float16": "float16",
    "float32": "float32",
    "float64": "float64",
    "bool_": "bool",
    "byte": "int8",
    "ubyte": "uint8",
}

#: NumPy dtype-character / string-literal spellings ("i1", "<u2", ...).
_DTYPE_STRINGS = {
    "i1": "int8",
    "u1": "uint8",
    "i2": "int16",
    "u2": "uint16",
    "i4": "int32",
    "u4": "uint32",
    "i8": "int64",
    "u8": "uint64",
    "f4": "float32",
    "f8": "float64",
}

#: Dtype aliases from ``repro.dtypes`` usable in annotations.
ALIAS_DTYPES = {
    "Int8Array": "int8",
    "UInt8Array": "uint8",
    "Int16Array": "int16",
    "Int32Array": "int32",
    "Int64Array": "int64",
    "UInt64Array": "uint64",
    "Float32Array": "float32",
    "Float64Array": "float64",
    "FloatArray": "floatany",
    "BoolArray": "bool",
    "AnyCodeArray": "uintany",
}

#: Known dtype-producing helpers of this repository and of NumPy,
#: matched on the final attribute / function name of a call.
KNOWN_RETURNS = {
    # repro numerical-safety helpers
    "saturating_add": "int8",
    "quantize_table": "int8",
    "portion_tables": "int8",
    "lower_bounds": "int8",
    "partition_lower_bounds": "int8",
    "group_key_digits": "uint8",
    "low_nibbles": "uint8",
    "tail_high_nibbles": "uint8",
    "reconstruct_all": "uint8",
    "pack_codes_words": "uint64",
    "extract_component": "uint8",
    # numpy index producers
    "flatnonzero": "int64",
    "argsort": "int64",
    "argpartition": "int64",
    "lexsort": "int64",
    "argmin": "int64",
    "argmax": "int64",
}

_WIDTHS = {
    "int8": 8,
    "uint8": 8,
    "int16": 16,
    "uint16": 16,
    "int32": 32,
    "uint32": 32,
    "int64": 64,
    "uint64": 64,
    "float16": 16,
    "float32": 32,
    "float64": 64,
}

_FLOATS = {"float16", "float32", "float64", "floatany", "pyfloat"}


def is_8bit(dtype: str | None) -> bool:
    """True for the two dtypes the saturation discipline covers."""
    return dtype in ("int8", "uint8")


def is_wide(dtype: str | None) -> bool:
    """True when the dtype provably cannot wrap at 8-bit width."""
    if dtype is None:
        return False
    if dtype in _FLOATS:
        return True
    return _WIDTHS.get(dtype, 0) >= 16


def _promote(left: str | None, right: str | None) -> str | None:
    """Approximate NumPy promotion; ``None`` wherever unsure."""
    if left is None or right is None:
        return None
    if left == "pyint":
        return right if right != "pyint" else "pyint"
    if right == "pyint":
        return left
    if left in _FLOATS or right in _FLOATS:
        if left in ("floatany", "pyfloat") or right in ("floatany", "pyfloat"):
            return "float64"
        return max(
            (d for d in (left, right) if d in _FLOATS),
            key=lambda d: _WIDTHS.get(d, 64),
        )
    if left in ("uintany",) or right in ("uintany",):
        return None
    wl, wr = _WIDTHS.get(left), _WIDTHS.get(right)
    if wl is None or wr is None:
        return None
    if left == right:
        return left
    signed_l, signed_r = not left.startswith("u"), not right.startswith("u")
    if signed_l == signed_r:
        return left if wl >= wr else right
    # Mixed signedness: NumPy widens to the next signed type.
    width = max(wl, wr)
    if (signed_l and wl >= wr) or (signed_r and wr >= wl):
        return left if signed_l else right
    return f"int{min(width * 2, 64)}"


def resolve_dtype_node(node: ast.expr) -> str | None:
    """Dtype named by an expression used as a ``dtype=`` argument."""
    if isinstance(node, ast.Attribute) and node.attr in DTYPE_NAMES:
        return DTYPE_NAMES[node.attr]
    if isinstance(node, ast.Name):
        if node.id in DTYPE_NAMES:
            return DTYPE_NAMES[node.id]
        if node.id == "bool":
            return "bool"
        if node.id == "int":
            return "int64"
        if node.id == "float":
            return "float64"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.lstrip("<>=|")
        if text in _DTYPE_STRINGS:
            return _DTYPE_STRINGS[text]
        if text in DTYPE_NAMES:
            return DTYPE_NAMES[text]
    return None


def annotation_dtype(node: ast.expr | None) -> str | None:
    """Dtype implied by a ``repro.dtypes`` alias annotation."""
    if node is None:
        return None
    if isinstance(node, ast.Name) and node.id in ALIAS_DTYPES:
        return ALIAS_DTYPES[node.id]
    if isinstance(node, ast.Attribute) and node.attr in ALIAS_DTYPES:
        return ALIAS_DTYPES[node.attr]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        if text in ALIAS_DTYPES:
            return ALIAS_DTYPES[text]
    return None


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


#: Constructors whose dtype argument position is known:
#: name -> index of the positional ``dtype`` argument (after the first).
_CONSTRUCTOR_DTYPE_POS = {
    "empty": 1,
    "zeros": 1,
    "ones": 1,
    "full": 2,
    "array": 1,
    "asarray": 1,
    "ascontiguousarray": 1,
    "asanyarray": 1,
    "arange": -1,  # keyword only, positional form too rare to model
    "empty_like": 1,
    "zeros_like": 1,
    "ones_like": 1,
    "full_like": 2,
    "fromiter": 1,
}

#: Constructors defaulting to float64 when no dtype is given.
_FLOAT_DEFAULT_CONSTRUCTORS = {"empty", "zeros", "ones"}


class ModuleInference:
    """One-pass, program-order dtype inference over a module."""

    def __init__(self, tree: ast.Module):
        self._types: dict[ast.expr, str | None] = {}
        self._exec_block(tree.body, env={})

    def dtype_of(self, node: ast.expr) -> str | None:
        """Inferred dtype of an expression node, or None if unknown."""
        return self._types.get(node)

    # -- statement walking ---------------------------------------------------

    def _exec_block(self, body: list[ast.stmt], env: dict[str, str | None]) -> None:
        for stmt in body:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: ast.stmt, env: dict[str, str | None]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = dict(env)
            args = stmt.args
            for arg in [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            ]:
                inner[arg.arg] = annotation_dtype(arg.annotation)
            self._exec_block(stmt.body, inner)
            return
        if isinstance(stmt, ast.ClassDef):
            self._exec_block(stmt.body, dict(env))
            return
        if isinstance(stmt, ast.Assign):
            dtype = self._infer(stmt.value, env)
            for target in stmt.targets:
                self._bind_target(target, dtype, env)
            return
        if isinstance(stmt, ast.AnnAssign):
            declared = annotation_dtype(stmt.annotation)
            inferred = self._infer(stmt.value, env) if stmt.value else None
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = declared if declared is not None else inferred
            return
        if isinstance(stmt, ast.AugAssign):
            self._infer(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                # x += y keeps x's dtype for arrays (in-place cast).
                self._types[stmt.target] = env.get(stmt.target.id)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_dtype = self._infer(stmt.iter, env)
            if isinstance(stmt.target, ast.Name):
                if (
                    isinstance(stmt.iter, ast.Call)
                    and _call_name(stmt.iter) in ("range", "enumerate")
                ):
                    env[stmt.target.id] = "pyint"
                else:
                    # Iterating an array yields elements of the same dtype.
                    env[stmt.target.id] = iter_dtype
            self._exec_block(stmt.body, env)
            self._exec_block(stmt.orelse, env)
            return
        if isinstance(stmt, ast.While):
            self._infer(stmt.test, env)
            self._exec_block(stmt.body, env)
            self._exec_block(stmt.orelse, env)
            return
        if isinstance(stmt, ast.If):
            self._infer(stmt.test, env)
            self._exec_block(stmt.body, env)
            self._exec_block(stmt.orelse, env)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._infer(item.context_expr, env)
            self._exec_block(stmt.body, env)
            return
        if isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, env)
            for handler in stmt.handlers:
                self._exec_block(handler.body, env)
            self._exec_block(stmt.orelse, env)
            self._exec_block(stmt.finalbody, env)
            return
        # Expression statements, returns, raises, asserts: infer all
        # expression children so rules can query them.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._infer(child, env)

    def _bind_target(
        self, target: ast.expr, dtype: str | None, env: dict[str, str | None]
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = dtype
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, None, env)
        # Subscript/attribute targets do not rebind names.

    # -- expression inference ------------------------------------------------

    def _infer(self, node: ast.expr, env: dict[str, str | None]) -> str | None:
        dtype = self._infer_inner(node, env)
        self._types[node] = dtype
        return dtype

    def _infer_inner(self, node: ast.expr, env: dict[str, str | None]) -> str | None:
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return "bool"
            if isinstance(node.value, int):
                return "pyint"
            if isinstance(node.value, float):
                return "pyfloat"
            return None
        if isinstance(node, ast.BinOp):
            left = self._infer(node.left, env)
            right = self._infer(node.right, env)
            return _promote(left, right)
        if isinstance(node, ast.UnaryOp):
            return self._infer(node.operand, env)
        if isinstance(node, ast.IfExp):
            self._infer(node.test, env)
            return _promote(self._infer(node.body, env), self._infer(node.orelse, env))
        if isinstance(node, ast.Subscript):
            dtype = self._infer(node.value, env)
            self._infer(node.slice, env)
            # Indexing/slicing a known array preserves its dtype.
            return dtype if dtype not in ("pyint", "pyfloat") else None
        if isinstance(node, ast.Attribute):
            base = self._infer(node.value, env)
            if node.attr == "T":
                return base
            return None
        if isinstance(node, ast.Compare):
            self._infer(node.left, env)
            for comparator in node.comparators:
                self._infer(comparator, env)
            return "bool"
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._infer(value, env)
            return None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self._infer(element, env)
            return None
        if isinstance(node, ast.Call):
            return self._infer_call(node, env)
        if isinstance(node, ast.Starred):
            return self._infer(node.value, env)
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self._infer(part, env)
            return None
        # Comprehensions, lambdas, f-strings: visit children, no opinion.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._infer(child, env)
        return None

    def _infer_call(self, node: ast.Call, env: dict[str, str | None]) -> str | None:
        for arg in node.args:
            self._infer(arg, env)
        for keyword in node.keywords:
            self._infer(keyword.value, env)
        name = _call_name(node)
        if name is None:
            return None
        if name in ("astype", "view") and isinstance(node.func, ast.Attribute):
            self._infer(node.func.value, env)
            if node.args:
                return resolve_dtype_node(node.args[0])
            for keyword in node.keywords:
                if keyword.arg == "dtype":
                    return resolve_dtype_node(keyword.value)
            return None
        if isinstance(node.func, ast.Attribute):
            self._infer(node.func.value, env)
        if name == "copy" and isinstance(node.func, ast.Attribute):
            return self._infer(node.func.value, env)
        if name in _CONSTRUCTOR_DTYPE_POS:
            dtype = self._constructor_dtype(node, name)
            if dtype is not None:
                return dtype
            if name in ("asarray", "ascontiguousarray", "asanyarray", "array"):
                return self._types.get(node.args[0]) if node.args else None
            if name in _FLOAT_DEFAULT_CONSTRUCTORS:
                return "float64"
            return None
        if name in ("clip",):
            return self._types.get(node.args[0]) if node.args else None
        if name in ("minimum", "maximum"):
            if len(node.args) >= 2:
                return _promote(
                    self._types.get(node.args[0]), self._types.get(node.args[1])
                )
            return None
        if name in ("floor", "ceil", "sqrt"):
            return "float64"
        if name in KNOWN_RETURNS:
            return KNOWN_RETURNS[name]
        return None

    def _constructor_dtype(self, node: ast.Call, name: str) -> str | None:
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                return resolve_dtype_node(keyword.value)
        pos = _CONSTRUCTOR_DTYPE_POS[name]
        if 0 < pos + 1 <= len(node.args) and pos >= 1:
            return resolve_dtype_node(node.args[pos])
        return None
