(** The sparse event-driven simulation plane.

    The exact engine ({!Engine.run}) charges one oracle attempt per party
    per round — O(n·rounds) work that caps experiments near n ≈ 10³. This
    plane simulates the same mining process in aggregate: per round the
    number of block (resp. fruit) wins is a Binomial(Q, p) draw over the
    total query budget Q, rounds containing no win are skipped with a
    geometric gap draw (never landing past a win round), and each win is
    attributed to a party through a hash-power-weighted alias table
    ({!Fruitchain_util.Alias}) in O(1). Work and randomness are O(wins +
    schedule events), independent of n except for attribution.

    The price is strategic fidelity: every party mines the single
    converged canonical chain (the exact plane's honest-coalition
    behaviour), so withholding/selfish strategies, network partitions and
    gossip relaying have no effect here — DESIGN.md §14 gives the
    equivalence argument and the full list of legitimate divergences. The
    statistical suite ([test/test_sparse_differential.ml]) holds the two
    planes to the same marginals.

    Determinism: all draws come from streams {!Fruitchain_util.Rng.derive}d
    from the config seed (scheduler, attribution, digest forging), so runs
    are byte-identical at any jobs count and unchanged by observation,
    like the exact plane. *)

module Scope = Fruitchain_obs.Scope
module Network = Fruitchain_net.Network

val run :
  config:Config.t ->
  ?workload:Strategy.workload ->
  ?net_policy:Network.policy ->
  ?round_hook:(scope:Scope.t -> round:int -> unit) ->
  ?max_skip:int ->
  ?scope:Scope.t ->
  unit ->
  Trace.t
(** Runs the configured execution on the sparse plane, under the shared
    round driver ({!Rounds.run}), with one oracle query per party per
    round: the attribution table has uniform weights and is built once.

    [workload] and [round_hook] are the fruitstorm/fruitscope hooks of the
    exact engine; a live [round_hook] forces every round to be visited
    (the hook must observe each one), which costs the skip-ahead but not
    the aggregate sampling. [net_policy] is accepted for interface parity
    but cannot re-order anything here: the sparse plane delivers by batch
    accounting ({!Network.deliver_batch}).

    [max_skip] caps how far ahead the engine may jump (default:
    unlimited). Because skipped rounds consume no randomness and mutate no
    state, any cap — including 1, i.e. visiting every round — produces a
    byte-identical trace; the determinism suite pins this.

    [oracle.queries] reports the {e effective} simulated attempts
    (n × rounds), not RNG draws, so fruitscope dumps stay comparable with
    the exact engine. *)
