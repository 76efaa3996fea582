"""Do a workload's set-up in a fresh process, then print `ready <backend>`.

Usage: python3 perfbench/setup_probe.py COMMAND SOURCE MAX_ARITY CHECKS

COMMAND is `verify` or `linfty`; SOURCE is a builtin name or `@FILE`;
CHECKS is a comma-separated list.  Set-up is everything the CLI does before
its first sweep: importing `ainfty.cli`, loading the structure, taking the
snapshot and the primed or unprimed version, and for `linfty` symmetrizing
every transferred map.  The caller times spawn to `ready`.
"""

import sys


def main(command: str, source: str, max_arity: int, checks: list[str]) -> None:
    import ainfty.cli  # noqa: F401  (the import the CLI pays for)
    from ainfty import BUILTIN_STRUCTURES, active_backend, parse_structure, symmetrize_prime

    if source.startswith("@"):
        with open(source[1:], "r", encoding="utf-8") as fh:
            s = parse_structure(fh.read(), name=source[1:])
    else:
        s = BUILTIN_STRUCTURES[source]()
    if command == "verify":
        snap = s.snapshot(max_arity)
        if "direct" in checks:
            snap.unprimed_version()
        if "coderivation" in checks:
            snap.primed_version()
    else:
        primed = s.primed_version()
        for k in range(1, max_arity + 1):
            m = primed.map_at(k)
            if m is not None:
                symmetrize_prime(m)
    print("ready", active_backend(), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4].split(","))
