"""First-mover auction: bidding for the right to post prices first.

The sequential mechanism hands the whole efficient surplus

    eta = W_max - sum_i Avg_i

to the first mover (averages are the ambiguity-adjusted menu averages for
max-min agents).  Auctioning that seat at the symmetric equilibrium bid
b* = (n-1) * eta / n, with the winner's payment rebated equally to the
losers, equalizes final payoffs at Avg_i + eta / n for everyone, no matter
who wins the draw.  Bids are pure transfers under cash-invariant utilities,
so the auction never touches which allocation gets implemented.

``efficient_surplus`` returns eta and ``audit_bid_deviation`` the bid
audit's supremum, each a float; W_max and the averages stay on the ``Game``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ValidationError
from .mechanism import Game, Transcript, first_mover_order, run_pnc

_WINNER_SEED = 47_02    # uniform winner draw label

ETA_NOISE_TOL = 1e-9


def efficient_surplus(game: Game) -> float:
    """eta = grid welfare maximum minus the summed menu averages.

    Nonnegative whenever the grid holds a point at least as good as the
    average benchmark, which the welfare maximum always is; tiny negative
    float residue is clamped, anything worse is returned as-is.
    """
    eta = game.welfare_max - float(game.averages.sum())
    if -ETA_NOISE_TOL <= eta < 0.0:
        eta = 0.0
    return eta


def equilibrium_bid(eta: float, n: int) -> float:
    """Symmetric equilibrium bid b* = (n-1) * eta / n.

    Satisfies the winner/loser indifference eta - b* = b* / (n-1).
    """
    if n < 2:
        raise ParameterError("the auction needs at least two agents")
    if eta < 0.0:
        raise ValidationError(
            f"negative efficient surplus {eta!r}: the grid is too coarse to "
            "cover the average benchmark"
        )
    b = (n - 1) * eta / n
    # Relative above unit scale, as in ``validate_feasible``.
    if abs((eta - b) - b / (n - 1)) > 1e-12 * max(1.0, eta):
        raise ValidationError("bid indifference identity failed")
    return b


@dataclass(frozen=True)
class AuctionOutcome:
    """Bids, the drawn winner, and the transfer vector."""

    bids: np.ndarray = field(repr=False)
    winner: int
    transfers: np.ndarray = field(repr=False)
    seed: int

    def to_dict(self) -> dict:
        return {
            "bids": [float(b) for b in self.bids],
            "winner": self.winner,
            "transfers": [float(t) for t in self.transfers],
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CombinedOutcome:
    """Auction followed by the mechanism: the efficient surplus eta the
    bids split, and the final per-agent payoffs."""

    auction: AuctionOutcome
    transcript: Transcript
    eta: float
    final_payoffs: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "auction": self.auction.to_dict(),
            "transcript": self.transcript.to_dict(),
            "final_payoffs": [float(g) for g in self.final_payoffs],
        }


def _transfers(bids: np.ndarray, winner: int) -> np.ndarray:
    n = len(bids)
    t = np.full(n, bids[winner] / (n - 1))
    t[winner] = -bids[winner]
    return t


def run_auction_then_pnc(game: Game, seed: int = 0, *,
                         winner: int | None = None) -> CombinedOutcome:
    """Equilibrium bidding, a seeded uniform winner draw, then exact-mode play.

    All agents bid b*; the tie set is everyone, so the seed alone picks the
    realized winner (pass ``winner`` to replay a specific branch).  The
    winner pays its bid, split equally among the losers, and moves first.
    Final payoffs come out at Avg_i + eta / n for every agent regardless of
    who won.
    """
    n = game.n_agents
    eta = efficient_surplus(game)
    b = equilibrium_bid(eta, n)
    bids = np.full(n, b)
    if winner is None:
        rng = np.random.default_rng([int(seed), _WINNER_SEED])
        tie_set = np.nonzero(bids == bids.max())[0]
        winner = int(tie_set[rng.integers(len(tie_set))])
    transfers = _transfers(bids, winner)
    order = first_mover_order(n, winner)
    transcript = run_pnc(game, "exact", order=order)
    final = transcript.payoffs + transfers
    outcome = AuctionOutcome(bids=bids, winner=winner, transfers=transfers,
                             seed=int(seed))
    return CombinedOutcome(auction=outcome, transcript=transcript,
                           eta=eta, final_payoffs=final)


def expected_deviation_payoff(avg_i: float, eta: float, b_star: float,
                              bid: float, n: int) -> float:
    """Exact expected payoff when one agent bids ``bid`` against b* others.

    The winner draw is uniform on the tie set, so the expectation is in
    closed form: overbidding wins surely and pays the bid; underbidding
    loses surely and collects the rebate; matching splits the two uniformly.
    """
    rebate = b_star / (n - 1)
    if bid > b_star:
        return avg_i + eta - bid
    if bid < b_star:
        return avg_i + rebate
    return avg_i + (eta - b_star) / n + rebate * (n - 1) / n


def audit_bid_deviation(game: Game) -> float:
    """Supremum of the expected gain over unilateral bids b >= 0 against
    the equilibrium; no bid beats the equilibrium when it is <= 0.

    By ``expected_deviation_payoff``, an overbid earns Avg_i + eta - b,
    which falls with b, an underbid earns Avg_i + b*/(n-1) whatever it is,
    and the equilibrium bid earns Avg_i + eta/n.  So the supremum of the
    gain over every bid is max(eta - b*, b*/(n-1)) - eta/n, the same for
    every agent.
    """
    n = game.n_agents
    eta = efficient_surplus(game)
    b_star = equilibrium_bid(eta, n)
    return max(eta - b_star, b_star / (n - 1)) - eta / n
