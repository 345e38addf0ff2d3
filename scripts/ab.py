"""In-process A/B of two checkouts: analysis and session timings, and the same bytes.

Usage: python3 scripts/ab.py PARENT CHANGE [--rounds N]

PARENT and CHANGE are checkouts, each with its package in ``src/replicasim``.
The script imports ``replicasim`` from each one's ``src`` into this one
process in turn, clearing the ``replicasim`` entries of ``sys.modules``
between the two, and puts each tree's own entries back before it runs that
tree. Timing both trees in one process, alternating which runs first in each
round, cancels most of the drift of a shared machine's speed that separate
processes would read as a difference.

Each tree builds the metrics tables of six corpora from seeded sessions, as
the benchmark's pilot-analysis does, and analyses each once untimed, which
fills the caches. Then each round times, for each tree:

- ``small``: ``analyze_rows`` + ``render_markdown`` on the 4:4, 6:6, 8:8 and
  5:11 corpora, where Mann-Whitney counts every labeling;
- ``large``: the same on the 19:20 and 60:60 corpora, which take its normal
  approximation;
- ``tablet`` and ``hmd``: ``SESSIONS`` (10) sessions of each condition on a link
  without latency, jitter or loss;
- ``tablet-link`` and ``hmd-link``: as many on ``scenario.DEFAULT_SESSION_LINK``,
  the 25 ± 10 ms link that ``simulate`` uses, which draws jitter on every send;
- ``codec``: ``encode_envelope`` then ``decode_envelope`` of every envelope in
  the transcripts of the corpora's hmd sessions, and of one 32-edit sync request
  on the default model that holds every edit op.

For each series it prints both medians (ms per round), the quartiles of the
per-round change/parent ratio, and in how many rounds the change was faster.
The exit code is 0, or 1 when the two trees' reports, session logs, encoded
frames or decoded envelopes differ.

The ratio is not 1 on identical code, and the order of the two trees can bias it.
Six rounds on two identical checkouts have read the second tree slower in six of
the seven series, by 1.3-2.4% in the median (``codec`` flat). Three more such
runs, on a shared 2-CPU machine, read medians from 0.88 to 1.10, in both
directions; ``small`` read 1.017, 0.932 and 0.976. So quote a gain from both
orders, ``ab.py PARENT CHANGE`` and ``ab.py CHANGE PARENT`` (which prints the
inverse ratio), and claim it only where both orders read it, by more than that.
"""
import argparse
import hashlib
import importlib
import statistics
import sys
import time
from pathlib import Path

SIZES = ((4, 4), (6, 6), (8, 8), (5, 11), (19, 20), (60, 60))
SMALL_POOLED_N = 16
SESSIONS = 10
SEED = 1
SERIES = ("small", "large", "tablet", "hmd", "tablet-link", "hmd-link", "codec")


def owned(name: str) -> bool:
    return name == "replicasim" or name.startswith("replicasim.")


def forget() -> None:
    """Drop every ``replicasim`` entry from ``sys.modules``."""
    for name in [name for name in sys.modules if owned(name)]:
        del sys.modules[name]


class Tree:
    """One checkout's ``replicasim``, imported into this process beside the other's."""

    def __init__(self, checkout: Path) -> None:
        src = str((checkout / "src").resolve())
        forget()
        sys.path.insert(0, src)
        try:
            for name in ("metrics", "netsim", "protocol", "replica", "report", "scenario", "scene"):
                setattr(self, name, importlib.import_module(f"replicasim.{name}"))
        finally:
            sys.path.remove(src)
        if not self.report.__file__.startswith(src):
            raise SystemExit(f"replicasim came from {self.report.__file__}, not from {src}")
        self.modules = {name: module for name, module in sys.modules.items() if owned(name)}
        scenario = self.scenario
        self.model = scenario.default_model()
        self.routing = scenario.default_routing_table()
        self.plan = scenario.build_default_plan(scenario.valve_registry(self.model))
        self.profiles = scenario.default_profiles()
        self.links = {"": self.netsim.LinkConfig(0, 0), "-link": scenario.DEFAULT_SESSION_LINK}
        self.logs = hashlib.sha256()  # every session log this tree wrote, in order
        self.envelopes = []  # every envelope of the corpora's hmd sessions, then the sync request

    def activate(self) -> None:
        """Make this tree's modules the ones that ``import replicasim...`` finds."""
        forget()
        sys.modules.update(self.modules)

    def session(self, condition: str, seed: int, link=None):
        member = self.scenario.Condition(condition)
        log = self.scenario.run_session(self.plan, member, self.profiles[member], seed=seed, model=self.model,
                                        routing=self.routing, link_config=link)
        self.logs.update(self.metrics.session_log_to_jsonl(log).encode("utf-8"))
        return log

    def corpus(self, n_tablet: int, n_hmd: int) -> list:
        rows = []
        for condition, count in (("tablet", n_tablet), ("hmd", n_hmd)):
            for i in range(count):
                seed = self.netsim.derive_seed(SEED, f"ab:{n_tablet}:{n_hmd}:{condition}:{i}")
                log = self.session(condition, seed)
                rows.append(self.metrics.session_row(f"{condition}-{i:03d}", log))
                if condition == "hmd":
                    self.envelopes += [entry.envelope for entry in log.transcript]
        return rows

    def sync_request(self):
        """An envelope of 32 Expert edits on the default model's valves, every edit op among them."""
        scene, protocol = self.scene, self.protocol
        valves = sorted(node.id for node in self.model.valves())
        edits = []
        for i in range(32):
            valve, role = valves[i % len(valves)], scene.Role.EXPERT
            note = scene.Annotation(f"a{i}", role, valve, "check the gland", (0.0, 0.1, 0.0))
            edits.append((scene.SetPose(valve, scene.Pose((0.25 * i, 0.0, 1.0)), role, i + 1),
                          scene.SetValveState(valve, scene.ValveState.OPEN, role, i + 1),
                          scene.SetHighlight(valve, (1.0, 0.5, 0.0), role, i + 1),
                          scene.SetIndication(valve, True, role, i + 1),
                          scene.AddAnnotation(note, role, i + 1),
                          scene.RemoveAnnotation(f"a{i - 1}", role, i + 1))[i % 6])
        request = self.replica.SyncRequest("expert", scene.Role.EXPERT, 0, tuple(edits))
        return protocol.Envelope("expert", 1, "r", protocol.SyncReq(request))

    def round_trip(self) -> tuple:
        """Each envelope encoded and decoded back: the frames and the decoded envelopes."""
        frames = list(map(self.protocol.encode_envelope, self.envelopes))
        return frames, [self.protocol.decode_envelope(frame)[0] for frame in frames]

    def analyze(self, rows: list) -> str:
        return self.report.render_markdown(self.report.analyze_rows(rows))


def time_round(tree: Tree, corpora: list, round_index: int) -> dict:
    """Milliseconds per series for one round of ``tree``."""
    tree.activate()
    elapsed = dict.fromkeys(SERIES, 0.0)
    for rows in corpora:
        start = time.perf_counter()
        tree.analyze(rows)
        elapsed["small" if len(rows) <= SMALL_POOLED_N else "large"] += time.perf_counter() - start
    for suffix, link in tree.links.items():
        for condition in ("tablet", "hmd"):
            series = condition + suffix
            seeds = [tree.netsim.derive_seed(SEED, f"ab:{round_index}:{series}:{i}") for i in range(SESSIONS)]
            start = time.perf_counter()
            for seed in seeds:
                tree.session(condition, seed, link)
            elapsed[series] += time.perf_counter() - start
    start = time.perf_counter()
    tree.round_trip()
    elapsed["codec"] += time.perf_counter() - start
    return {series: seconds * 1e3 for series, seconds in elapsed.items()}


def quartiles(values: list) -> list:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "replicasim" / "__init__.py").is_file():
            parser.error(f"{checkout} holds no src/replicasim")

    trees, corpora, reports, wire = [], [], [], []
    for checkout in (args.parent, args.change):
        tree = Tree(checkout)
        rows = [tree.corpus(t, h) for t, h in SIZES]
        tree.envelopes.append(tree.sync_request())
        frames, decoded = tree.round_trip()
        trees.append(tree)
        corpora.append(rows)
        reports.append([tree.analyze(table) for table in rows])
        wire.append((b"".join(frames), list(map(repr, decoded))))

    times = [{series: [] for series in SERIES} for _ in trees]
    for round_index in range(args.rounds):
        order = (0, 1) if round_index % 2 == 0 else (1, 0)
        for side in order:
            for series, ms in time_round(trees[side], corpora[side], round_index).items():
                times[side][series].append(ms)

    parent, change = times
    print(f"{'series':<11} {'parent ms':>10} {'change ms':>10} {'ratio q1':>9} {'median':>7} {'q3':>7} faster")
    for series in SERIES:
        ratios = [c / p for p, c in zip(parent[series], change[series])]
        q1, q2, q3 = quartiles(ratios)
        faster = sum(ratio < 1.0 for ratio in ratios)
        print(f"{series:<11} {statistics.median(parent[series]):>10.3f} {statistics.median(change[series]):>10.3f} "
              f"{q1:>9.3f} {q2:>7.3f} {q3:>7.3f} {faster}/{args.rounds}")

    (parent_frames, parent_decoded), (change_frames, change_decoded) = wire
    same_frames, same_decoded = parent_frames == change_frames, parent_decoded == change_decoded
    print(f"frames ({len(parent_decoded)} envelopes): {'same' if same_frames else 'DIFFER'}; "
          f"decoded: {'same' if same_decoded else 'DIFFER'}")
    same_reports = reports[0] == reports[1]
    same_logs = trees[0].logs.digest() == trees[1].logs.digest()
    print(f"reports: {'same' if same_reports else 'DIFFER'}; session logs: {'same' if same_logs else 'DIFFER'}")
    return 0 if same_reports and same_logs and same_frames and same_decoded else 1


if __name__ == "__main__":
    sys.exit(main())
