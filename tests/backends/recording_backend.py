#!/usr/bin/env python3
"""good_backend that, once its input is closed, writes "closed" to the file
named by its argument.  The record comes late enough that only a caller
that waits for the backend to exit sees it right away."""
import sys
import time

from good_backend import main

if __name__ == "__main__":
    main()
    time.sleep(0.2)
    with open(sys.argv[1], "w") as fh:
        fh.write("closed\n")
