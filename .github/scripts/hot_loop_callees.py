#!/usr/bin/env python3
"""Lists the call targets of both execution cores' quiescent loops.

Usage: hot_loop_callees.py [BINARY]   (default: target/release/fiq)

Disassembles the binary with `objdump -d -C`, finds every
`step_quiescent` symbol of `fiq_asm` and `fiq_interp`, and prints the
distinct `call` targets of each. A callee that should be inlined into the
loop (a `fiq_mem::memory::Memory` accessor, `Cond::eval` or `load_kind`)
is printed as a GitHub `::warning::` line, and so is a binary with no such
symbol, so the check cannot pass vacuously. Always exits 0: inlining
depends on the compiler version, so this is a report, not a gate.
"""

import re
import subprocess
import sys

SYMBOL = re.compile(r"^[0-9a-f]+ <(.*)>:$")
CALL = re.compile(r"\bcall[q]?\s+[0-9a-f]+ <(.*)>$")
CRATES = ("fiq_asm::", "fiq_interp::")
UNWANTED = ("fiq_mem::memory::Memory", "Cond::eval", "load_kind")


def main() -> int:
    binary = sys.argv[1] if len(sys.argv) > 1 else "target/release/fiq"
    try:
        dis = subprocess.run(
            ["objdump", "-d", "-C", "--no-show-raw-insn", binary],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"::warning::hot-loop callees: cannot disassemble {binary}: {e}")
        return 0
    loops: dict[str, set[str]] = {}
    current = None
    for line in dis.splitlines():
        m = SYMBOL.match(line)
        if m:
            name = m.group(1)
            hot = name.endswith("step_quiescent") and name.startswith(
                CRATES + tuple("<" + c for c in CRATES)
            )
            current = f"{name} @ {line.split()[0]}" if hot else None
            if current:
                loops[current] = set()
            continue
        if current:
            c = CALL.search(line.strip())
            if c:
                loops[current].add(c.group(1).split("+0x")[0])
    if not loops:
        print(f"::warning::hot-loop callees: no step_quiescent symbol in {binary}")
        return 0
    for name, callees in sorted(loops.items()):
        print(name)
        for callee in sorted(callees):
            if any(u in callee for u in UNWANTED):
                print(f"::warning::hot-loop callee of {name}: {callee}")
            else:
                print(f"    calls {callee}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
