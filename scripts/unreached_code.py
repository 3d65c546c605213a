#!/usr/bin/env python3
"""List the simulator functions that no program reaches.

Build every program -- the bench_* exhibits, the examples and
benchmark/spk_bench -- at -O0 with -ffunction-sections and
-Wl,--gc-sections, so the linker drops each function nothing calls and
nothing is inlined away. Then run

    python3 scripts/unreached_code.py LIBSPK PROGRAM...

LIBSPK is the libspk.a the programs linked. The script lists every
function in namespace spk that LIBSPK defines out of line and that no
PROGRAM keeps, and exits 1 if one of them is not on ALLOWED below. It
also exits 1, naming the entry, if an ALLOWED name is stale: it names
no function that LIBSPK defines.

Functions are matched on their mangled names, which start with _ZN3spk
(or _ZNK3spk for const members). The demangled text is only printed: a
template instantiation demangles with its return type first, so its
text does not start with "spk::". Functions in an anonymous namespace
are matched by name too, so two files defining the same local name
count as one.
"""

import subprocess
import sys

# Functions tests use to check live code. No program calls them.
ALLOWED = {
    "spk::TraceStore::totalRecords":
        "tests check that interning stores each trace once",
    "spk::EventQueue::nextEventTick":
        "tests check the calendar queue's levels with it",
    "spk::Rng::nextInRange":
        "calendar_queue_test draws its event delays with it",
}

SPK_PREFIXES = ("_ZN3spk", "_ZNK3spk")
TEXT_TYPES = {"T", "t", "W"}


def text_symbols(path):
    """Mangled names of the functions @p path defines."""
    out = subprocess.run(
        ["nm", "--defined-only", "--format=posix", path],
        check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        # Archive member headers ("libspk.a[x.cc.o]:") have one field.
        if len(fields) >= 2 and fields[1] in TEXT_TYPES:
            names.add(fields[0])
    return names


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         check=True, capture_output=True,
                         text=True).stdout
    return out.splitlines()


def names(entry, demangled):
    """Whether ALLOWED entry @p entry names function @p demangled."""
    return demangled.startswith(entry + "(")


def allowed(demangled):
    return any(names(entry, demangled) for entry in ALLOWED)


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    library, programs = argv[1], argv[2:]

    defined = {name for name in text_symbols(library)
               if name.startswith(SPK_PREFIXES)}
    kept = set()
    for program in programs:
        kept |= text_symbols(program)

    unreached = sorted(defined - kept)
    failures = 0
    for demangled in sorted(demangle(unreached)):
        if allowed(demangled):
            print("allowed:   " + demangled)
        else:
            print("unreached: " + demangled)
            failures += 1
    everything = demangle(sorted(defined))
    stale = [entry for entry in sorted(ALLOWED)
             if not any(names(entry, d) for d in everything)]
    for entry in stale:
        print("stale:     %s is allowed, but %s defines no such function"
              % (entry, library))
    print("%d of %d spk functions in %s are kept by none of %d "
          "programs; %d not allowed; %d stale allowlist entries" %
          (len(unreached), len(defined), library, len(programs),
           failures, len(stale)))
    return 1 if failures or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
