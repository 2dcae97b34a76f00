"""Acceptance gate: end-to-end checks at stated tolerances.

Each criterion prints one [PASS]/[FAIL] line to the terminal (bypassing
capture) and then asserts, so a red run still names every verdict.
"""

import copy
import functools
import itertools
import json
import random
import time

from swarmsim import auction, cli, commitment, wallet
from swarmsim.auction import AuctionConfig
from swarmsim.commitment import bid_list_root, encode_bid_leaf, merkle_root, prove, verify_inclusion
from swarmsim.harness import oracle_from_contributions, run_scenario_dict
from swarmsim.ledger import Contribution, FundingWindow
from swarmsim.netsim import FAULT_KINDS
from swarmsim.scenario import agent_signing_key, build_scenario_dict
from swarmsim.wallet import MultisigPolicy, SignatureShare, verify_bundle, verifying_key_for


def verdict(capsys, ok: bool, label: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}", flush=True)
    assert ok, label


# -- memoized scenario runs, shared with the key confinement scan ----------------


@functools.lru_cache(maxsize=None)
def large_scale_run():
    data = build_scenario_dict(
        seed=3, bidders=15000, items=10000, dist="pareto:1000,1.5", max_time=500
    )
    start = time.perf_counter()
    tr, rep = run_scenario_dict(data)
    elapsed = time.perf_counter() - start
    return data, tr.text(), rep, elapsed


@functools.lru_cache(maxsize=None)
def default_run():
    data = build_scenario_dict(seed=7)
    tr, rep = run_scenario_dict(data)
    return data, tr.text(), rep


@functools.lru_cache(maxsize=None)
def sweep_runs():
    out = []
    for net_seed in range(20):
        data = build_scenario_dict(
            seed=7, delay=(1, 3), drop_rate=0.1, r_max=6, max_time=500
        )
        data["net"]["seed"] = net_seed
        tr, rep = run_scenario_dict(data)
        out.append((data, tr.text(), rep))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def fault_runs():
    out = []
    for kind in FAULT_KINDS:
        for idx in range(3):
            fault = {"agent_index": idx, "kind": kind}
            if kind == "crash":
                fault["at_time"] = 5  # window end: dies as consensus starts
            if kind == "wrong_root":
                fault["perturb_seed"] = 1
            data = build_scenario_dict(seed=7)
            data["agents"]["faults"] = [fault]
            tr, rep = run_scenario_dict(data)
            out.append((kind, idx, data, tr.text(), rep))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def collusion_run():
    data = build_scenario_dict(
        seed=7, faults=("0:wrong_root:5", "1:wrong_root:5")
    )
    tr, rep = run_scenario_dict(data)
    return data, tr.text(), rep


# -- criteria ----------------------------------------------------------------------


def test_criterion_1_large_scale_run(capsys):
    _, _, rep, elapsed = large_scale_run()
    ok = (
        elapsed < 10.0
        and rep.outcome == "SETTLED_CORRECT"
        and rep.on_chain_tx_count == 1
        and rep.conservation_ok
    )
    verdict(
        capsys,
        ok,
        "criterion 1: 15000 bidders / 10000 items settled correctly in "
        f"{elapsed:.2f}s with one on-chain tx and exact conservation",
    )


def random_instance(rng):
    """Contribution lists with ties, duplicates, window strays, undersubscription."""
    window = FundingWindow(1, 4)
    n_items = rng.choice((1, 2, 3, 5, 8, 13, 21, 34, 55, 64))
    n_contribs = rng.randint(0, 500)
    tight_amounts = rng.random() < 0.5  # force ties often
    contribs = []
    for seq in range(n_contribs):
        sender = rng.randint(1, 200).to_bytes(2, "big") * 10
        amount = rng.randint(1, 8) if tight_amounts else rng.randint(1, 10**9)
        height = rng.randint(0, 5)  # strays below and above the window
        contribs.append((sender, amount, height, rng.randbytes(32)))
    return n_items, window, contribs


def engine_settlement_bytes(auction_id, n_items, window, contribs):
    cfg = AuctionConfig(n_items=n_items, window=window, auction_id=auction_id)
    view = [
        Contribution(sender=s, amount=a, block_height=h, tx_id=t)
        for s, a, h, t in contribs
    ]
    bids, late = auction.aggregate(view, window)
    ranked, price = auction.compute_clearing(cfg, auction.canonical_sort(bids))
    return auction.encode_settlement(auction.build_settlement(cfg, ranked, price, late))


def test_criterion_2_oracle_equivalence(capsys):
    rng = random.Random(20260814)
    auction_id = b"\x42" * 32
    matches = 0
    trials = 1000
    for _ in range(trials):
        n_items, window, contribs = random_instance(rng)
        engine = engine_settlement_bytes(auction_id, n_items, window, contribs)
        oracle_tx, _ = oracle_from_contributions(auction_id, n_items, window, contribs)
        if engine == auction.encode_settlement(oracle_tx):
            matches += 1
    verdict(
        capsys,
        matches == trials,
        f"criterion 2: engine settlement byte-equals the oracle on {matches}/{trials} "
        "random instances",
    )


def test_criterion_3_price_monotonicity(capsys):
    rng = random.Random(31337)
    window = FundingWindow(1, 4)
    violations = 0
    pairs = 500
    for _ in range(pairs):
        n_bidders = rng.randint(1, 120)
        n_items = rng.randint(1, n_bidders)  # fully subscribed regime
        cfg = AuctionConfig(n_items=n_items, window=window, auction_id=b"\x42" * 32)
        view = [
            Contribution(
                sender=(i + 1).to_bytes(2, "big") * 10,
                amount=rng.randint(1, 1000),
                block_height=rng.randint(1, 4),
                tx_id=rng.randbytes(32),
            )
            for i in range(n_bidders)
        ]

        def price(contribs):
            bids, _ = auction.aggregate(contribs, window)
            _, clearing_price = auction.compute_clearing(cfg, auction.canonical_sort(bids))
            return clearing_price

        before = price(view)
        extra = Contribution(
            sender=(n_bidders + 1).to_bytes(2, "big") * 10,
            amount=rng.randint(1, 1000),
            block_height=rng.randint(1, 4),
            tx_id=rng.randbytes(32),
        )
        if price(view + [extra]) < before:
            violations += 1
    verdict(
        capsys,
        violations == 0,
        f"criterion 3: clearing price never decreased across {pairs} instance pairs "
        f"({violations} violations)",
    )


def test_criterion_4_determinism(capsys):
    data, text_a, rep_a = default_run()
    _, rep_rerun = run_scenario_dict(copy.deepcopy(data))
    rerun_ok = rep_rerun.transcript_hash == rep_a.transcript_hash

    runs = sweep_runs()
    outcomes = {rep.outcome for _, _, rep in runs}
    digests = {rep.executed["digest"] for _, _, rep in runs if rep.executed}
    sweep_ok = outcomes == {"SETTLED_CORRECT"} and len(digests) == 1
    verdict(
        capsys,
        rerun_ok and sweep_ok,
        "criterion 4: identical transcript hash on rerun; 20-seed network sweep "
        f"all settled with {len(digests)} distinct settlement tx",
    )


def test_criterion_5_single_fault_safety(capsys):
    runs = fault_runs()
    fraudulent = [
        (kind, idx) for kind, idx, _, _, rep in runs if rep.outcome == "SETTLED_FRAUDULENT"
    ]
    stray = [
        (kind, idx)
        for kind, idx, _, _, rep in runs
        if rep.outcome not in ("SETTLED_CORRECT", "ABORTED")
    ]
    verdict(
        capsys,
        len(runs) == 15 and not fraudulent and not stray,
        "criterion 5: 15 single-fault runs (5 kinds x 3 positions) all in "
        f"{{SETTLED_CORRECT, ABORTED}}, {len(fraudulent)} fraudulent",
    )


def test_criterion_6_collusion_reproduction(capsys, tmp_path):
    data, _, rep = collusion_run()
    spath = tmp_path / "collusion.json"
    spath.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    exit_code = cli.main(["run", spath.as_posix()])
    capsys.readouterr()  # swallow the cli summary
    verdict(
        capsys,
        rep.outcome == "SETTLED_FRAUDULENT" and exit_code == 3,
        "criterion 6: two colluders sharing a perturbation settled fraudulently "
        f"(outcome {rep.outcome}, exit code {exit_code})",
    )


def test_criterion_7_merkle_sensitivity(capsys):
    rng = random.Random(777)
    collisions = 0
    proof_failures = 0
    cross_accepts = 0
    for _ in range(200):
        n = rng.randint(1, 16)
        bids = [
            auction.AggregatedBid(
                bidder=rng.randbytes(20),
                total=rng.randint(1, 10**12),
                first_height=rng.randint(0, 50),
                first_tx=rng.randbytes(32),
            )
            for _ in range(n)
        ]
        root = bid_list_root(bids)
        for i in range(n):
            for mutated in (
                bids[:i]
                + [
                    auction.AggregatedBid(
                        bidder=bytes([bids[i].bidder[0] ^ 1]) + bids[i].bidder[1:],
                        total=bids[i].total,
                        first_height=bids[i].first_height,
                        first_tx=bids[i].first_tx,
                    )
                ]
                + bids[i + 1 :],
                bids[:i]
                + [
                    auction.AggregatedBid(
                        bidder=bids[i].bidder,
                        total=bids[i].total + 1,
                        first_height=bids[i].first_height,
                        first_tx=bids[i].first_tx,
                    )
                ]
                + bids[i + 1 :],
                bids[:i]
                + [
                    auction.AggregatedBid(
                        bidder=bids[i].bidder,
                        total=bids[i].total,
                        first_height=bids[i].first_height + 1,
                        first_tx=bids[i].first_tx,
                    )
                ]
                + bids[i + 1 :],
                bids[:i]
                + [
                    auction.AggregatedBid(
                        bidder=bids[i].bidder,
                        total=bids[i].total,
                        first_height=bids[i].first_height,
                        first_tx=bytes([bids[i].first_tx[0] ^ 1]) + bids[i].first_tx[1:],
                    )
                ]
                + bids[i + 1 :],
            ):
                if bid_list_root(mutated) == root:
                    collisions += 1
        for i in range(n - 1):
            swapped = list(bids)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if bid_list_root(swapped) == root:
                collisions += 1
        leaves = [encode_bid_leaf(b) for b in bids]
        assert merkle_root(leaves) == root
        proofs = [prove(leaves, i) for i in range(n)]
        for i in range(n):
            if not verify_inclusion(root, leaves[i], proofs[i]):
                proof_failures += 1
            j = (i + 1) % n
            if j != i and verify_inclusion(root, leaves[j], proofs[i]):
                cross_accepts += 1
    verdict(
        capsys,
        collisions == 0 and proof_failures == 0 and cross_accepts == 0,
        "criterion 7: 200 bid lists, every single-field perturbation and adjacent "
        f"swap moved the root ({collisions} collisions); all proofs round-trip, "
        f"{cross_accepts} cross-index accepts",
    )


def test_criterion_8_key_confinement(capsys):
    texts = [large_scale_run()[1], default_run()[1], collusion_run()[1]]
    seeds = [3, 7, 7]
    texts += [text for _, text, _ in sweep_runs()]
    seeds += [7] * 20
    texts += [text for _, _, _, text, _ in fault_runs()]
    seeds += [7] * 15
    leaks = 0
    scanned = 0
    for seed, text in zip(seeds, texts):
        blob = text.encode("utf-8")
        for i in range(3):
            key = agent_signing_key(seed, i)
            scanned += 1
            if (
                key in blob
                or key.hex() in text
                or key.hex().upper() in text
            ):
                leaks += 1
    verdict(
        capsys,
        leaks == 0 and scanned == 3 * len(texts),
        f"criterion 8: scanned {len(texts)} transcripts for {scanned} signing keys "
        f"(raw and hex), {leaks} leaks",
    )


def test_criterion_9_multisig_exhaustive(capsys):
    digest = b"\x5a" * 32
    keys = [agent_signing_key(88, i) for i in range(5)]
    vks = [verifying_key_for(k) for k in keys]
    valid = [wallet.sign(k, digest) for k in keys]
    corrupt = [bytes([s[0] ^ 1]) + s[1:] for s in valid]
    # per index: absent, one valid, duplicated valid, corrupted, valid+corrupted
    STATES = ("absent", "valid", "valid2", "bad", "valid+bad")
    mismatches = 0
    checked = 0
    for n in range(1, 5):
        policy_keys = tuple(vks[:n])
        outsider = SignatureShare(agent_index=n, sig=valid[n])
        for pattern in itertools.product(STATES, repeat=n):
            shares = []
            distinct_valid = 0
            for i, state in enumerate(pattern):
                if state == "absent":
                    continue
                if state in ("valid", "valid2", "valid+bad"):
                    distinct_valid += 1
                if state == "valid":
                    shares.append(SignatureShare(agent_index=i, sig=valid[i]))
                elif state == "valid2":
                    shares.append(SignatureShare(agent_index=i, sig=valid[i]))
                    shares.append(SignatureShare(agent_index=i, sig=valid[i]))
                elif state == "bad":
                    shares.append(SignatureShare(agent_index=i, sig=corrupt[i]))
                else:
                    shares.append(SignatureShare(agent_index=i, sig=valid[i]))
                    shares.append(SignatureShare(agent_index=i, sig=corrupt[i]))
            for with_outsider in (False, True):
                bundle = shares + ([outsider] if with_outsider else [])
                for m in range(1, n + 1):
                    policy = MultisigPolicy(agent_keys=policy_keys, m=m)
                    got = verify_bundle(policy, digest, bundle)
                    checked += 1
                    if got.accepted != (distinct_valid >= m):
                        mismatches += 1
    verdict(
        capsys,
        mismatches == 0,
        f"criterion 9: {checked} exhaustive bundle patterns (n<=4, m<=n) matched "
        f"the distinct-valid-count oracle with {mismatches} mismatches",
    )
