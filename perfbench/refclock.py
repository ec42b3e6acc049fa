"""Machine speed, from a fixed pure-Python kernel timed between queries.

The benchmark's machine is a share of a busy host: from one second to the
next, everything in it can run up to twice as fast or slow, and a whole
run can fall into a slow or fast stretch, which no median within the run
removes.  ``RefClock`` times a fixed kernel, independent of ``cider``,
between queries and, from a timer signal, during long ones; each timing of
the program, less the kernel's own time, is then scaled by how long the
kernel took just before, during and just after it, to what it would be on
a machine where the kernel takes ``NOMINAL_S``.  Work the program does
still shows in full: only the speed of the machine is divided out.
"""

import contextlib
import gc
import signal
import statistics
from bisect import bisect_left
from time import perf_counter

NOMINAL_S = 0.01  # kernel time that scaled timings refer to
INTERVAL_S = 0.1  # one kernel sample per this much time
MAX_BURST = 10  # most samples taken at once, after a long query
PROBE_S = 0.2  # one kernel sample per this much time during a query
BRACKET = 3  # samples on each side of a timing that set its scale


def reference_kernel():
    """A fixed amount of pure-Python work of the program's kinds: set
    saturation, and building, printing and parsing back small records."""
    return _saturate(80), _records(1100)


def _saturate(n):
    x, succ = 1, []
    for _ in range(n):
        row = set()
        for _ in range(3):
            x = (x * 1103515245 + 12345) % 2 ** 31
            row.add(x % n)
        succ.append(frozenset(row))
    closure = [{i} | succ[i] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for reached in closure:
            new = set()
            for j in reached:
                new |= succ[j]
            if not new <= reached:
                reached |= new
                changed = True
    return sorted((len(c), i) for i, c in enumerate(closure))[-1]


class _Record:
    __slots__ = ("name", "kids", "attrs")

    def __init__(self, name, kids, attrs):
        self.name, self.kids, self.attrs = name, kids, attrs


def _records(m):
    records = [
        _Record(f"n{i}", [i, i + 1, (i, "x")],
                {"p": i % 7, "q": f"v{i % 13}", "key": format(i % 64, "06b")})
        for i in range(m)
    ]
    text = "\n".join(f"{r.name}: {r.attrs['key']} {r.attrs['q']} {len(r.kids)}"
                     for r in records)
    parsed = {}
    for line in text.split("\n"):
        name, _, rest = line.partition(": ")
        parsed[name] = tuple(rest.split(" "))
    return min(parsed.items(), key=lambda kv: kv[1])


class RefClock:
    """Kernel timings over a run, and the scale they give each moment."""

    def __init__(self):
        self.times = []  # start of each kernel sample
        self.seconds = []  # its duration
        for _ in range(3):  # warm up
            reference_kernel()

    def sample(self):
        # The kernel makes no reference cycles; with the collector off, its
        # time does not depend on how many objects the program keeps alive.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference_kernel()
            elapsed = perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.times.append(start)
        self.seconds.append(elapsed)

    def bracket(self):
        """Samples enough to set the scale of a timing that starts or ends now."""
        for _ in range(BRACKET):
            self.sample()

    def tick(self):
        """Take one sample per INTERVAL_S since the last one, so that a long
        query is followed by several and every moment has samples near it."""
        due = 1 if not self.times else int((perf_counter() - self.times[-1]) / INTERVAL_S)
        for _ in range(min(due, MAX_BURST)):
            self.sample()

    @contextlib.contextmanager
    def probing(self):
        """Take a sample every PROBE_S while the block runs, from a timer
        signal, so that a long query has samples from while it ran."""
        previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def busy(self, start, end):
        """Seconds of the samples taken between start and end."""
        return sum(self.seconds[bisect_left(self.times, start):bisect_left(self.times, end)])

    def scale(self, start, end):
        """The factor that turns a timing from start to end into one at the
        nominal machine speed: NOMINAL_S over the median kernel time of the
        BRACKET samples before start, those taken until end, and the BRACKET
        after end."""
        lo, hi = bisect_left(self.times, start), bisect_left(self.times, end)
        near = self.seconds[max(0, lo - BRACKET):hi + BRACKET]
        return NOMINAL_S / statistics.median(near)

    def median_s(self):
        return statistics.median(self.seconds)
