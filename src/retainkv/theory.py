"""Numerical verification of the dilution and geometric-persistence results.

Three independent pillars:

* near-tie distractors force a computable lower bound on attention dilution,
  and preferential retention transforms dilution by an exact formula;
* under stable VAR(1) query dynamics with a uniform block-exit probability
  from a token's relaxed top-K survival region, survival decays geometrically,
  with an explicit amplitude and rate recoverable from the exit probability;
* each token's last selection in a running model yields survival curves
  whose qualitative shape (sharp drop under fixed top-K, slower under mass
  criteria) the harness checks directly.

`run_theory_suite` runs the dilution, reweighting and persistence checks and
the VAR(1) diagnostics on seeded instances; `retainkv theory` writes its report.

Everything here is randomized-but-seeded; Monte Carlo trial streams derive
from one master seed so results do not depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Array, as_matrix, as_vector, softmax, softmax_log_space
from .tasks import TaskSpec, build_task_model, generate_dataset


class StabilityError(ValueError):
    """The query-dynamics matrix has spectral radius >= 1."""


# -- dilution bounds ----------------------------------------------------------


def _mask(mask, shape: tuple, name: str) -> np.ndarray:
    """`mask` as a boolean array, which must have the given shape."""
    m = np.asarray(mask)
    if m.dtype != np.bool_ or m.shape != shape:
        raise ValueError(f"{name} must be a boolean mask of shape {shape}")
    return m


def dilution(weights: Array, useful: Array) -> float:
    """Fraction of attention mass assigned outside the useful set.

    `useful` is a boolean mask shaped like the weights. Accepts any
    probability vector, so it measures full, gated, or evicted attention
    uniformly. An empty useful set is allowed and yields 1.
    """
    w = as_vector(weights, "weights")
    # count_nonzero answers "any?" faster than any() on short arrays
    if abs(float(w.sum()) - 1.0) > 1e-9 or np.count_nonzero(w < -1e-12):
        raise ValueError("weights must form a probability vector")
    mass = float(w[_mask(useful, w.shape, "useful")].sum())
    return float(min(1.0, max(0.0, 1.0 - mass)))


@dataclass(frozen=True)
class DilutionInstance:
    """Logits with a useful set and a certified near-tie distractor subset,
    both as boolean masks shaped like the logits."""

    logits: Array
    useful: Array
    near_tie_margin: float      # Delta >= 0
    near_tie: Array             # distractors within Delta of the best useful logit

    def validate(self) -> None:
        z = as_vector(self.logits, "logits")
        u = _mask(self.useful, z.shape, "useful")
        t = _mask(self.near_tie, z.shape, "near_tie")
        if not np.count_nonzero(u):
            raise ValueError("useful set must be nonempty")
        if self.near_tie_margin < 0:
            raise ValueError("near-tie margin must be >= 0")
        if np.count_nonzero(t & u):
            raise ValueError("near-tie set must be disjoint from the useful set")
        far = t & (z < z[u].max() - self.near_tie_margin - 1e-12)
        if np.count_nonzero(far):
            raise ValueError(f"index {np.flatnonzero(far)[0]} is not within the near-tie margin")


def dilution_lower_bound(margin: float, n_distractors: int, n_useful: int) -> float:
    """Guaranteed dilution from n near-tie distractors within `margin` nats.

    a / (1 + a) with a = exp(-margin) * n_distractors / n_useful.
    """
    if n_useful < 1:
        raise ValueError("need at least one useful token")
    if margin < 0 or n_distractors < 0:
        raise ValueError("margin and distractor count must be >= 0")
    a = math.exp(-margin) * n_distractors / n_useful
    return a / (1.0 + a)


@dataclass(frozen=True)
class DilutionBoundCheck:
    delta: float
    bound: float
    holds: bool


def check_dilution_bound(instance: DilutionInstance) -> DilutionBoundCheck:
    """Measured dilution vs the near-tie lower bound; `holds` must always be True."""
    instance.validate()
    weights = softmax(instance.logits)
    delta = dilution(weights, instance.useful)
    bound = dilution_lower_bound(instance.near_tie_margin,
                                 int(np.count_nonzero(instance.near_tie)),
                                 int(np.count_nonzero(instance.useful)))
    return DilutionBoundCheck(delta, bound, delta >= bound - 1e-12)


def random_near_tie_instance(rng: np.random.Generator, max_tokens: int = 64) -> DilutionInstance:
    n_useful = int(rng.integers(1, 5))
    margin = float(abs(rng.normal(0.0, 1.0)))
    n_tie = int(rng.integers(1, max_tokens - n_useful + 1))
    n_low = int(rng.integers(0, max(1, max_tokens - n_useful - n_tie + 1)))
    useful = rng.normal(0.0, 1.0, size=n_useful)
    m = useful.max()
    tie = m - margin + margin * rng.random(n_tie) + rng.random(n_tie)
    low = m - margin - 0.01 - np.abs(rng.normal(0.0, 2.0, size=n_low))
    logits = np.concatenate([useful, tie, low])
    masks = np.zeros((2, logits.shape[0]), dtype=bool)  # useful, near-tie
    masks[0, :n_useful] = True
    masks[1, n_useful:n_useful + n_tie] = True
    return DilutionInstance(logits, masks[0], margin, masks[1])


@dataclass(frozen=True)
class ReweightingCheck:
    direct: float
    formula: float
    delta: float
    rho_useful: float
    rho_distractor: float


def check_reweighting_identity(logits: Array, useful: Array, retention: Array) -> ReweightingCheck:
    """Reweighted dilution measured directly vs the exact transformation formula.

    `useful` is a boolean mask shaped like the logits; every other token is a
    distractor. Both sides are assembled from positive stable-softmax sums, so
    they agree to float64 roundoff; the identity itself is exact.
    """
    z = as_vector(logits, "logits")
    r = as_vector(retention, "retention")
    if r.shape != z.shape:
        raise ValueError("retention weights must match logits")
    if np.count_nonzero((r < 0.0) | (r > 1.0)):
        raise ValueError("retention weights must lie in [0, 1]")
    u = _mask(useful, z.shape, "useful")
    d = ~u
    if not np.count_nonzero(u):
        raise ValueError("useful set must be nonempty")

    alpha = softmax(z)
    useful_mass = float(alpha[u].sum())
    delta = float(alpha[d].sum())

    rho_u = float(softmax(z[u]) @ r[u])
    rho_d = float(softmax(z[d]) @ r[d]) if np.count_nonzero(d) else 0.0
    if rho_u <= 0.0:
        raise ValueError("no useful token is retained")

    with np.errstate(divide="ignore"):
        log_r = np.where(r > 0.0, np.log(np.where(r > 0.0, r, 1.0)), -np.inf)
    weights_r = softmax_log_space(z, log_r)
    direct = float(weights_r[d].sum())

    a = (rho_d / rho_u) * delta
    formula = a / (useful_mass + a) if (useful_mass + a) > 0.0 else 0.0
    return ReweightingCheck(direct, formula, delta, rho_u, rho_d)


# -- geometric persistence under VAR(1) query dynamics ------------------------


@dataclass(frozen=True)
class PersistenceConfig:
    """A tracked token inside a cache of compatibility vectors, plus dynamics."""

    transition: Array            # A, [m, m]; spectral radius < 1 required
    offset: Array                # b, [m]
    noise_scale: float
    compat: Array                # cached compatibility vectors, [n_tokens, m]
    token: int                   # which row of compat is tracked
    top_k: int
    slack: float = 0.0           # region relaxation below the top-K threshold
    block: int = 1               # exit window b_i, in steps

    def validate(self) -> None:
        a = as_matrix(self.transition, "transition")
        if a.shape[0] != a.shape[1]:
            raise ValueError("transition matrix must be square")
        if spectral_radius(a) >= 1.0:
            raise StabilityError(
                f"spectral radius {spectral_radius(a):.3f} >= 1; dynamics unstable")
        if not (1 <= self.top_k <= self.compat.shape[0]):
            raise ValueError("top_k must lie in [1, n_tokens]")
        if not (0 <= self.token < self.compat.shape[0]):
            raise ValueError("token index out of range")
        if self.slack < 0 or self.block < 1 or self.noise_scale < 0:
            raise ValueError("slack, block and noise_scale must be nonnegative")


def spectral_radius(a: Array) -> float:
    return float(np.abs(np.linalg.eigvals(np.asarray(a, dtype=np.float64))).max())


def _in_region(cfg: PersistenceConfig, states: Array) -> np.ndarray:
    """Membership of each state row in the token's relaxed top-K region.

    A row is in the region when its own score is at least the K-th largest
    score minus the slack. Rounding is monotone, so the K-th largest shifted
    score is the shifted K-th largest, and counting the shifted scores above
    the own score decides membership exactly, ties included.
    """
    scores = states @ cfg.compat.T
    own = scores[:, cfg.token].copy()
    scores -= cfg.slack
    # einsum counts along short rows faster than count_nonzero or sum
    return np.einsum("ij->i", scores > own[:, None], dtype=np.intp) < cfg.top_k


def _step(cfg: PersistenceConfig, states: Array, noise: Array) -> Array:
    """One VAR(1) step of every row, driven by standard normal `noise`."""
    return states @ cfg.transition.T + cfg.offset + cfg.noise_scale * noise


@dataclass
class PersistenceResult:
    survival: Array              # P(n) for n = 1..n_max
    stderr: Array
    bound: Array                 # amplitude * beta**n
    epsilon_hat: float
    beta: float
    amplitude: float
    vacuous: bool                # no block exit ever observed; bound is trivial
    region_unreachable: bool
    holds: bool

    def margin(self) -> float:
        return float((self.bound + 3 * self.stderr - self.survival).min())


SEARCH_STEPS = 20000   # steps searched for in-region start states
CHUNK_ROWS = 1 << 15   # rollout rows stepped and tested at a time
MIN_TRIALS = 1000      # survival chains needed for a usable standard error


def _stationary_law(cfg: PersistenceConfig) -> tuple[Array, Array]:
    """Mean and covariance of the chain's stationary law N(mu, Sigma).

    mu = (I - A)^-1 b, and Sigma solves Sigma = A Sigma A^T + s^2 I, from
    vec(Sigma) = (I - A kron A)^-1 vec(s^2 I) with row-major vec. Both
    inverses exist because the spectral radius of A is below 1.
    """
    a = cfg.transition
    m = a.shape[0]
    mu = np.linalg.solve(np.eye(m) - a, cfg.offset)
    vec = np.linalg.solve(np.eye(m * m) - np.kron(a, a),
                          (cfg.noise_scale ** 2 * np.eye(m)).ravel())
    return mu, vec.reshape(m, m)


def _stationary(cfg: PersistenceConfig, rng: np.random.Generator, rows: int) -> Array:
    """`rows` independent states drawn from the chain's stationary law.

    Without noise the law is a point mass at mu, and no normals are drawn.
    """
    mu, cov = _stationary_law(cfg)
    if cfg.noise_scale == 0.0:
        return np.tile(mu, (rows, 1))
    return mu + rng.standard_normal((rows, mu.shape[0])) @ np.linalg.cholesky(cov).T


def estimate_block_exit(cfg: PersistenceConfig, rng: np.random.Generator,
                        n_starts: int = 1000, n_rollouts: int = 1000) -> tuple[float, bool]:
    """Worst-case block-exit probability over sampled in-region states.

    The assumption bounds the stay probability uniformly over the region, so
    the relevant estimate is one minus the *largest* observed stay
    probability. Returns (epsilon_hat, region_unreachable).
    """
    m = cfg.transition.shape[0]
    state = _stationary(cfg, rng, 64)
    starts = []
    found = steps = 0
    while found < n_starts and steps < SEARCH_STEPS:
        state = _step(cfg, state, rng.standard_normal(state.shape))
        mask = _in_region(cfg, state)
        if mask.any():
            starts.append(state[mask])
            found += starts[-1].shape[0]
        steps += 1
    if not starts:
        return 0.0, True
    pool = np.concatenate(starts)[:n_starts]
    rows = pool.shape[0] * n_rollouts
    # all rollouts of a start share the noise-free part of their first step;
    # adding the scaled noise to it is `_step`'s sum, term for term
    base = pool @ cfg.transition.T + cfg.offset
    alive = np.empty(rows, dtype=bool)
    live = []  # per chunk: the states of its live rows, in row order
    # chunks draw in row order into one reused buffer: one [rows, m] draw
    noise = np.empty((min(CHUNK_ROWS, rows), m))
    for lo in range(0, rows, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, rows)
        # rows lo..hi-1 are rollouts of starts first..last-1
        first, last = lo // n_rollouts, (hi - 1) // n_rollouts + 1
        counts = np.full(last - first, n_rollouts)
        counts[0] -= lo - first * n_rollouts
        counts[-1] -= last * n_rollouts - hi
        chunk = np.repeat(base[first:last], counts, axis=0)
        draw = rng.standard_normal(out=noise[:hi - lo])
        draw *= cfg.noise_scale
        chunk += draw
        alive[lo:hi] = _in_region(cfg, chunk)
        if cfg.block > 1:
            live.append(chunk[alive[lo:hi]])
    # later steps draw noise for, move and test only the rows still alive;
    # in row order these draws are one draw per step, whatever the chunking
    for _ in range(1, cfg.block):
        for k, lo in enumerate(range(0, rows, CHUNK_ROWS)):
            if len(live[k]):
                rows_k = np.flatnonzero(alive[lo:lo + CHUNK_ROWS])
                states = _step(cfg, live[k], rng.standard_normal(live[k].shape))
                inside = _in_region(cfg, states)
                alive[lo + rows_k] = inside
                live[k] = states[inside]
    stay = alive.reshape(pool.shape[0], n_rollouts).mean(axis=1)
    return float(1.0 - stay.max()), False


def simulate_persistence(cfg: PersistenceConfig, n_max: int = 200, trials: int = 2000,
                         seed: int = 0, n_starts: int = 1000,
                         n_rollouts: int = 1000) -> PersistenceResult:
    """Monte Carlo survival inside the relaxed region vs the geometric bound.

    Survival at n is the fraction of chains whose first n future states all
    stay in the region. The bound amplitude and rate come from the measured
    block-exit probability: beta = (1 - eps)**(1/block), amplitude =
    1 / (1 - eps). When no exit is ever observed the bound is vacuous and the
    comparison is skipped.
    """
    cfg.validate()
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a usable standard error")
    master = np.random.SeedSequence(seed)
    rng_exit, rng_run = [np.random.default_rng(s) for s in master.spawn(2)]

    eps_hat, unreachable = estimate_block_exit(cfg, rng_exit, n_starts, n_rollouts)
    states = _stationary(cfg, rng_run, trials)
    alive = np.ones(trials, dtype=bool)
    survival = np.zeros(n_max)
    for n in range(n_max):
        states = _step(cfg, states, rng_run.standard_normal(states.shape))
        alive &= _in_region(cfg, states)
        survival[n] = alive.mean()
        if not alive.any():
            break  # every later survival is 0; rng_run is read nowhere else
    stderr = np.sqrt(survival * (1.0 - survival) / trials)

    vacuous = eps_hat <= 0.0
    if vacuous:
        beta, amplitude = 1.0, 1.0
        bound = np.ones(n_max)
        holds = True  # trivially: survival never exceeds 1
    else:
        beta = (1.0 - eps_hat) ** (1.0 / cfg.block)
        amplitude = 1.0 / (1.0 - eps_hat)
        bound = amplitude * beta ** np.arange(1, n_max + 1)
        holds = bool(np.all(survival <= bound + 3.0 * stderr))
    return PersistenceResult(survival, stderr, bound, eps_hat, beta, amplitude,
                             vacuous, unreachable, holds)


# -- VAR(1) diagnostics --------------------------------------------------------


STABILITY_MARGIN = 0.01


@dataclass(frozen=True)
class Var1Fit:
    transition: Array
    offset: Array
    residual_rms: float
    spectral_radius: float

    @property
    def stable(self) -> bool:
        # least squares biases unit roots downward by O(1/T), so a fitted
        # radius within the margin of 1 is not credible evidence of stability
        return self.spectral_radius < 1.0 - STABILITY_MARGIN


def fit_var1(trajectories: list) -> Var1Fit:
    """Least-squares one-lag fit r_{t+1} = A r_t + b over pooled trajectories."""
    xs, ys = [], []
    m = None
    for traj in trajectories:
        t = as_matrix(traj, "trajectory")
        if m is None:
            m = t.shape[1]
        if t.shape[1] != m:
            raise ValueError("trajectories must share a state dimension")
        if t.shape[0] < m + 1:
            raise ValueError(f"each trajectory needs at least {m + 1} steps")
        xs.append(t[:-1])
        ys.append(t[1:])
    if not xs:
        raise ValueError("no trajectories given")
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    design = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    rank = np.linalg.matrix_rank(design)
    if rank < m + 1:
        raise ValueError(f"singular design matrix (rank {rank} < {m + 1})")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    a = coef[:m].T
    b = coef[m]
    resid = y - design @ coef
    return Var1Fit(a, b, float(np.sqrt(np.mean(resid ** 2))), spectral_radius(a))


def pca_project(states: Array, k: int) -> tuple[Array, Array, Array]:
    """Project pooled states onto their top-k covariance eigendirections.

    Returns (projected [n, k], components [k, m], eigenvalues [k]).
    """
    x = as_matrix(states, "states")
    if not (1 <= k <= x.shape[1]):
        raise ValueError("k must lie in [1, state dim]")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / max(1, x.shape[0] - 1)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1][:k]
    comps = vecs[:, order].T
    return centered @ comps.T, comps, vals[order]


# -- survival curves -----------------------------------------------------------


def survival_curve(reach, horizons) -> Array:
    """Fraction of tokens still selected at or beyond each horizon, from each
    token's distance to its last selection (`reach`; -1 if never selected)."""
    horizons = np.asarray(list(horizons))
    if horizons.size and not np.issubdtype(horizons.dtype, np.integer):
        raise ValueError(f"horizons must be integers; got {horizons.dtype}")
    if np.any(horizons < 1):
        raise ValueError("horizons must be positive")
    reach = np.asarray(reach)
    if reach.size == 0:
        raise ValueError("no tokens to follow")
    return np.array([(reach >= h).mean() for h in horizons])


# -- the theory suite ----------------------------------------------------------


def random_persistence_config(rng: np.random.Generator) -> PersistenceConfig:
    """Stable dynamics with a reachable, frequently-exited survival region."""
    m = int(rng.integers(2, 4))
    a = rng.normal(size=(m, m))
    a *= rng.uniform(0.3, 0.85) / spectral_radius(a)
    n_tokens = int(rng.integers(6, 14))
    compat = rng.normal(size=(n_tokens, m))
    compat /= np.linalg.norm(compat, axis=1, keepdims=True)
    return PersistenceConfig(
        transition=a,
        offset=0.2 * rng.normal(size=m),
        noise_scale=float(rng.uniform(0.6, 1.2)),
        compat=compat,
        token=int(rng.integers(0, n_tokens)),
        top_k=int(rng.integers(1, min(4, n_tokens))),
        slack=float(rng.uniform(0.0, 0.4)),
        block=int(rng.integers(1, 3)),
    )


def _backbone_query_var(cfg: dict, rng: np.random.Generator) -> dict:
    """Fit query-state dynamics of the toy model: PCA projection, then VAR(1)."""
    spec = TaskSpec(**cfg["task"])
    bb = build_task_model(spec, rng)
    # layer 0, head 0's queries: the same expression as in the forward pass
    trajs = [(bb.embed[s.tokens] + bb.pos[:len(s.tokens)]) @ bb.wq[0, 0]
             for s in generate_dataset(spec, 8, rng)]
    states = np.concatenate(trajs)
    _, comps, spectrum = pca_project(states, states.shape[1])
    effective_rank = int(np.sum(spectrum > 1e-10 * spectrum.sum()))
    k = max(1, min(8, effective_rank))
    fit = fit_var1([(t - states.mean(axis=0)) @ comps[:k].T for t in trajs])
    return {"pca_dims": k, "spectral_radius": fit.spectral_radius,
            "stable": fit.stable, "residual_rms": fit.residual_rms}


def _var1_paths(rng: np.random.Generator, fits: int, radius: float) -> np.ndarray:
    """`fits` VAR(1) paths of 1500 steps in 4 dimensions from the zero state,
    as [fits, 1501, 4].

    Each fit draws a transition scaled to spectral radius `radius`, an
    offset and its noise, in that order. The paths then run in lockstep as
    stacked rows, which gives each fit the bits of its own `a @ x + b + e`.
    """
    m, steps = 4, 1500
    a = np.empty((fits, m, m))
    b = np.empty((fits, m))
    noise = np.empty((fits, steps, m))
    for f in range(fits):
        a[f] = rng.normal(size=(m, m))
        a[f] *= radius / spectral_radius(a[f])
        b[f] = 0.1 * rng.normal(size=m)
        # one draw gives the same stream as `steps` draws of size m
        noise[f] = 0.1 * rng.normal(size=(steps, m))
    states = np.zeros((fits, steps + 1, m))
    for t in range(steps):
        states[:, t + 1] = (a @ states[:, t, :, None])[..., 0] + b + noise[:, t]
    return states


def run_theory_suite(cfg: dict, seed: int) -> tuple[dict, list[dict]]:
    """The theory report and the rows of `persistence.csv`."""
    tcfg = cfg["theory"]
    master = np.random.SeedSequence(seed)
    rng_bound, rng_ident, rng_pers, rng_var, rng_bb = \
        [np.random.default_rng(s) for s in master.spawn(5)]

    bound_viol = 0
    bound_margin = np.inf
    for _ in range(tcfg["bound_instances"]):
        res = check_dilution_bound(random_near_tie_instance(rng_bound))
        bound_margin = min(bound_margin, res.delta - res.bound)
        if not res.holds:
            bound_viol += 1

    ident_viol = 0
    ident_err = 0.0
    for _ in range(tcfg["identity_instances"]):
        n = int(rng_ident.integers(2, 65))
        z = rng_ident.normal(0.0, 2.0, size=n)
        n_useful = int(rng_ident.integers(1, n))
        useful = np.zeros(n, dtype=bool)
        useful[rng_ident.choice(n, size=n_useful, replace=False)] = True
        r = rng_ident.random(n)
        res = check_reweighting_identity(z, useful, r)
        err = abs(res.direct - res.formula)
        ident_err = max(ident_err, err)
        if err >= 1e-12:
            ident_viol += 1

    pers_viol = 0
    pers_vacuous = 0
    pers_details = []
    pers_rows = []
    for i in range(tcfg["persistence_configs"]):
        pcfg = random_persistence_config(rng_pers)
        res = simulate_persistence(pcfg, n_max=tcfg["n_max"],
                                   trials=tcfg["persistence_trials"],
                                   seed=int(rng_pers.integers(2 ** 31)))
        detail = {"config": i, "epsilon_hat": res.epsilon_hat, "beta": res.beta,
                  "vacuous": res.vacuous, "holds": res.holds}
        if res.vacuous:
            pers_vacuous += 1
        elif not res.holds:
            pers_viol += 1
        else:
            detail["margin"] = res.margin()
        pers_details.append(detail)
        for n in range(res.survival.shape[0]):
            pers_rows.append({"config": i, "horizon": n + 1, "criterion": "survival",
                              "fraction": float(res.survival[n])})
            pers_rows.append({"config": i, "horizon": n + 1, "criterion": "bound",
                              "fraction": float(min(1.0, res.bound[n]))})

    target = tcfg["var_radius"]
    radii = [fit_var1([states]).spectral_radius
             for states in _var1_paths(rng_var, tcfg["var_fits"], target)]
    walk = np.cumsum(rng_var.normal(size=(1000, 3)), axis=0)
    walk_fit = fit_var1([walk])

    report = {
        "seed": seed,
        "dilution_bound": {"instances": tcfg["bound_instances"], "violations": bound_viol,
                  "min_margin": bound_margin},
        "reweighting": {"instances": tcfg["identity_instances"], "violations": ident_viol,
                 "max_abs_error": ident_err},
        "persistence": {"configs": tcfg["persistence_configs"],
                        "violations": pers_viol, "vacuous": pers_vacuous,
                        "details": pers_details},
        "var1": {"fits": tcfg["var_fits"], "target_radius": target,
                 "median_fitted_radius": float(np.median(radii)),
                 "random_walk_radius": walk_fit.spectral_radius,
                 "random_walk_flagged_unstable": not walk_fit.stable},
        "backbone_query_var": _backbone_query_var(cfg, rng_bb),
        "violations_total": bound_viol + ident_viol + pers_viol,
    }
    return report, pers_rows
