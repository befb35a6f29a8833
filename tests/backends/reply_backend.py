#!/usr/bin/env python3
"""Scripted test backend: answers every request with the reply given as its
first argument, e.g. ``reply_backend.py '(sat (model (x 5)))'``."""
import sys

for _ in sys.stdin:
    print(sys.argv[1], flush=True)
