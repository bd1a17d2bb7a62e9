"""Seeded workload generation: config streams and arrival schedules.

Everything the program under test receives is drawn here from the
``--seed`` alone, so the same seed always yields the same inputs. Each
workload's configs follow a fixed *design*: every round of a
closed-loop workload covers all ten registry models, with GPUs and
batch multipliers spread over their whole range by a Latin square. The
seed orders the ops, jitters the policy_sweep and serve_mixed batches
by up to 2% and draws the serve traffic, so different seeds exercise
different inputs while the mix, and with it the run-to-run spread,
stays the same.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

GPUS = ("rtx_titan", "gtx_1080ti", "v100_16gb")

#: The paper's baselines (Figs. 12/13) plus TSPLIT itself.
SWEEP_POLICIES = (
    "base", "vdnn_all", "vdnn_conv", "superneurons", "checkpoints",
    "zero_offload", "fairscale_offload", "tsplit",
)

#: Policies whose planner searches for a plan that fits the budget: an
#: engine OOM after such a plan says "fits" is a failed op.
BUDGET_SEARCHING = ("tsplit", "tsplit_nosplit")

#: Models cheap enough to compile cold inside a served request: a cold
#: tsplit compile takes 8-12 ms on a 2-core x86-64 VM. resnet50 and gpt
#: took 30-90 ms, varying with the drawn batch, which moved the tail
#: from run to run.
SMALL_MODELS = ("vgg16", "vgg19")

#: Relative batch jitter each seed applies to the fixed config design.
JITTER = 0.02

#: Fixed workload parameters; recorded in every result header.
PARAMS = {
    "compile_cold": {
        "loop": "closed, 1 caller",
        "round_s": 30,
        "round": "30 ops: every (model, gpu) once",
        "batch_mult": [1.0, 3.0],
        "nosplit_per_round": 6,
        "cache": None,
    },
    "policy_sweep": {
        "loop": "closed, 1 caller, serial backend",
        "round_s": 30,
        "round": "10 points (every model once) x 8 policies",
        "batch_frac": [0.3, 0.6],
        "iterations": 2,
        "address_plan": True,
    },
    "serve_mixed": {
        "loop": "open, Poisson arrivals, 2 sender threads/connections",
        "rate_per_s": 4.0,
        "latency_limit_ms": 460.0,
        "configs": 20,
        # Steep enough that the warm vgg reads are ~70% of all requests,
        # so the median falls inside them, not in the gap above them.
        "zipf_s": 2.0,
        "mode_mix": {"plan": 0.80, "run": 0.15, "cold": 0.05},
        # Run mode (lower + execute) on gpt takes 55-80 ms: the slowest
        # group of requests, large enough to hold the tail percentile.
        "run_models": ["gpt"],
        "batch_frac": [0.25, 0.5],
        "workers": 2,
    },
}


@dataclass(frozen=True)
class Config:
    """One (model, gpu, batch, policy) input handed to the program."""

    model: str
    gpu: str
    batch: int
    policy: str

    @property
    def key(self) -> str:
        return f"{self.model}/{self.gpu}/b{self.batch}/{self.policy}"

    def as_dict(self) -> dict:
        return asdict(self)


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds a closed-loop run measures: ``seconds`` over the round's
    nominal duration at the seed commit, at least one. Fixed work for a
    given ``--seconds``, so a faster program runs the same ops, never a
    different mix."""
    return max(1, round(seconds / PARAMS[workload]["round_s"]))


def _rng(workload: str, seed: int, salt: str = "") -> random.Random:
    # String seeds hash through SHA-512: stable across processes and
    # independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{salt}")


def unoptimised_fits(models, gpus=GPUS) -> dict[tuple[str, str], float]:
    """Largest batch each (model, gpu) trains with no memory policy.

    Peak un-optimised memory is affine in the batch, so two cheap
    graph builds per model give it exactly enough for a seeded draw.
    """
    from repro.analysis.footprint import model_memory_requirement
    from repro.hardware.gpu import GPU_PRESETS
    from repro.models.registry import build_model

    fits = {}
    for model in models:
        at8 = model_memory_requirement(build_model(model, 8))
        at16 = model_memory_requirement(build_model(model, 16))
        slope = (at16 - at8) / 8
        fixed = at8 - 8 * slope
        for gpu in gpus:
            fits[(model, gpu)] = (GPU_PRESETS[gpu].memory_bytes - fixed) / slope
    return fits


def _jitter(rng: random.Random) -> float:
    return 1.0 + rng.uniform(-JITTER, JITTER)


def compile_cold_round(seed: int, index: int, models, fits) -> list[Config]:
    """Round ``index``: every (model, gpu) once, 30 ops, in seeded order.

    Each model meets each GPU once and each third of the 1x-3x
    multiplier range once (a Latin square over models and GPUs); six
    ops, at most one per model, are planned by ``tsplit_nosplit``.
    Batches are not jittered: planner time is chaotic in the batch
    (a 2% change moved single ops by up to 2.4x and flipped
    plan-fits/engine-OOM outcomes), so the seed only orders the round.
    """
    rng = _rng("compile_cold", seed, str(index))
    lo, hi = PARAMS["compile_cold"]["batch_mult"]
    thirds = len(GPUS)
    configs = []
    for m, model in enumerate(models):
        for g, gpu in enumerate(GPUS):
            mult = lo + ((m + g) % thirds + 0.5) * (hi - lo) / thirds
            batch = max(1, round(fits[(model, gpu)] * mult))
            policy = "tsplit_nosplit" if (m * thirds + g) % 5 == 0 else "tsplit"
            configs.append(Config(model, gpu, batch, policy))
    rng.shuffle(configs)
    return configs


def policy_sweep_round(seed: int, index: int, models, fits) -> list[Config]:
    """Round ``index``: one loosely-fitting point per model, each run
    under every sweep policy in turn.

    GPUs rotate over the models and batch fractions step through the
    0.3-0.6 range, both shifted by the round index; the seed jitters
    every batch and orders the points.
    """
    rng = _rng("policy_sweep", seed, str(index))
    lo, hi = PARAMS["policy_sweep"]["batch_frac"]
    n = len(models)
    points = []
    for m, model in enumerate(models):
        gpu = GPUS[(m + index) % len(GPUS)]
        frac = lo + ((m * 3 + index) % n + 0.5) * (hi - lo) / n
        points.append((model, gpu, max(1, round(
            fits[(model, gpu)] * frac * _jitter(rng)))))
    rng.shuffle(points)
    return [Config(model, gpu, batch, policy)
            for model, gpu, batch in points for policy in SWEEP_POLICIES]


@dataclass(frozen=True)
class Arrival:
    """One scheduled request of the open-loop serve workload."""

    due: float  # seconds after the schedule starts
    config: Config
    mode: str  # "plan" or "run"
    cold: bool  # a config the daemon has never seen


#: Zipf rank order of the serve workload's models: small graphs are
#: the hot set, the largest graphs the long tail.
SERVE_RANK = (
    "vgg16", "vgg19", "gpt", "resnet50", "transformer", "bert_large",
    "resnet101", "densenet121", "inception_v4", "resnet152",
)


def serve_configs(seed: int, fits) -> list[Config]:
    """The 20 warm configs (ten models x two GPUs), in Zipf rank order.

    Rank order is fixed so the hot set has the same shape for every
    seed; the seed jitters batches.
    """
    rng = _rng("serve_mixed", seed, "configs")
    lo, hi = PARAMS["serve_mixed"]["batch_frac"]
    policies = ("tsplit", "superneurons", "checkpoints")
    configs = []
    for i, model in enumerate(SERVE_RANK):
        for gpu in ("rtx_titan", "v100_16gb"):
            frac = lo + (len(configs) % 5 + 0.5) * (hi - lo) / 5
            batch = max(1, round(fits[(model, gpu)] * frac * _jitter(rng)))
            policy = policies[len(configs) % len(policies)]
            if policy == "superneurons" and model in (
                "transformer", "bert_large", "gpt",
            ):
                policy = "tsplit"  # superneurons refuses attention models
            configs.append(Config(model, gpu, batch, policy))
    return configs


def serve_schedule(
    seed: int, seconds: float, warm: list[Config], fits,
) -> list[Arrival]:
    """Poisson arrivals over ``seconds`` with exact per-mode counts.

    ``rate * seconds`` arrival times are drawn uniformly and sorted (a
    Poisson process conditioned on its count). Plan-mode reads take
    each warm config as often as its Zipf weight says (largest
    remainder), in seeded order; run-mode requests cycle through the
    warm configs of the ``run_models`` in a seeded order. So every run
    has the same request mix. Cold requests are small-model configs
    never seen before, cycling through the models.
    """
    params = PARAMS["serve_mixed"]
    rng = _rng("serve_mixed", seed, "schedule")
    n = round(params["rate_per_s"] * seconds)
    times = sorted(rng.uniform(0.0, seconds) for _ in range(n))
    mix = params["mode_mix"]
    n_cold, n_run = round(mix["cold"] * n), round(mix["run"] * n)
    modes = ["cold"] * n_cold + ["run"] * n_run + ["plan"] * (n - n_cold - n_run)
    rng.shuffle(modes)
    plans = _zipf_counts(warm, n - n_cold - n_run, params["zipf_s"])
    rng.shuffle(plans)
    run_order = [c for c in warm if c.model in params["run_models"]]
    rng.shuffle(run_order)
    used = {(c.model, c.gpu, c.batch) for c in warm}
    cold_start = rng.randrange(len(SMALL_MODELS))
    lo, hi = params["batch_frac"]
    arrivals = []
    for t, mode in zip(times, modes):
        if mode == "cold":
            # Cold requests cycle through the small models from a seeded
            # start, so every run compiles the same mix of them.
            cold = sum(a.cold for a in arrivals)
            model = SMALL_MODELS[(cold + cold_start) % len(SMALL_MODELS)]
            gpu = rng.choice(("rtx_titan", "v100_16gb"))
            # A fresh batch: unseen by the daemon, and by this schedule.
            batch = max(1, round(fits[(model, gpu)] * rng.uniform(lo, hi)))
            while (model, gpu, batch) in used:
                batch += 1
            used.add((model, gpu, batch))
            arrivals.append(Arrival(t, Config(model, gpu, batch, "tsplit"),
                                    "plan", True))
        elif mode == "run":
            config = run_order[sum(a.mode == "run" for a in arrivals)
                               % len(run_order)]
            arrivals.append(Arrival(t, config, "run", False))
        else:
            arrivals.append(Arrival(t, plans.pop(), "plan", False))
    return arrivals


def _zipf_counts(configs: list[Config], n: int, s: float) -> list[Config]:
    """``n`` configs, each repeated in proportion to 1 / rank**s."""
    weights = [1.0 / (rank + 1) ** s for rank in range(len(configs))]
    shares = [n * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(configs)),
                          key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return [c for c, k in zip(configs, counts) for _ in range(k)]
