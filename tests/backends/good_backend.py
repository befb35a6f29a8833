#!/usr/bin/env python3
"""Well-behaved test backend: answers with the built-in engine."""
import sys

from hornitp.engine import binary_interpolant
from hornitp.errors import NotUnsat
from hornitp.sexpr import constraint_str, model_str, parse_with, read_constraint, read_var_decls


def read_request(forms):
    """(A, B) of the request ``(interpolate (vars ...) (A c) (B c))``."""
    node = forms[0]
    at = {node[i][0]: i for i in range(1, len(node))}
    variables = read_var_decls(node, at["vars"], 1)
    return (read_constraint(node[at["A"]], 1, variables),
            read_constraint(node[at["B"]], 1, variables))


def main():
    for line in sys.stdin:
        if not line.strip():
            continue
        a, b = parse_with(line, read_request)
        try:
            itp = binary_interpolant(a, b)
            print(f"(interpolant {constraint_str(itp.formula)})", flush=True)
        except NotUnsat as exc:
            print(f"(sat {model_str(exc.model)})", flush=True)


if __name__ == "__main__":
    main()
