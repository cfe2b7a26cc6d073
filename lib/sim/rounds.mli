(** The round driver: one EXEC_Π(A, Z, κ) loop (§2.1) for both
    simulation planes.

    The driver owns what the planes share: the run's store, network,
    trace and lifecycle; cursors over the corruption, uncorruption and
    gossip schedules (with their trace events); the [round_hook]; probe
    injection; the height/head snapshots with the [heights]/[net] events;
    [run.start], the final heads, the harvest and [run.end]. A plane
    ({!Engine}: every party every round; {!Sparse}: aggregate win
    sampling) supplies only its win scheduler, as a {!plane}.

    Each visited round runs, in order: the [round_hook], due gossip
    toggles, corruptions and uncorruptions, the probe, {!plane.step},
    then the snapshots. *)

open Fruitchain_chain
module Oracle = Fruitchain_crypto.Oracle
module Network = Fruitchain_net.Network
module Scope = Fruitchain_obs.Scope
module Metrics = Fruitchain_obs.Metrics

type env = {
  scope : Scope.t;
  store : Store.t;
  network : Network.t;
  trace : Trace.t;
  lifecycle : Lifecycle.t option;
  workload : Strategy.workload;  (** The caller's records, without probes. *)
  record : round:int -> party:int -> string;
      (** The workload's record, or the active probe where it gives [""]. *)
}
(** What the driver builds before the plane. *)

type plane = {
  engine : string;  (** The [engine] field of [run.start]. *)
  oracle : Oracle.t;  (** Read once at the end, for the query count. *)
  step : int -> unit;  (** Mine (and deliver) one visited round. *)
  next : int -> int;
      (** [next r]: the first round after [r] the plane has work in. The
          driver also visits its own schedule, probe and snapshot rounds,
          and every round while a [round_hook] is set. *)
  head : round:int -> int -> Store.id option;
      (** A party's head at [round]; [None] while it is corrupt. *)
  corrupt : int -> unit;  (** Z hands this party to the adversary. *)
  uncorrupt : int -> unit;  (** The adversary releases this party. *)
  gossip : bool -> unit;  (** A scheduled relay toggle. *)
  harvest : Metrics.t -> unit;  (** Plane-only end-of-run counters. *)
}

val run :
  config:Config.t ->
  ?workload:Strategy.workload ->
  ?net_policy:Network.policy ->
  ?round_hook:(scope:Scope.t -> round:int -> unit) ->
  ?scope:Scope.t ->
  (env -> plane) ->
  Trace.t
(** [run ~config make] builds the shared state, gets the plane from
    [make], and drives it to round [config.rounds]. The optional
    arguments are {!Engine.run}'s. *)
