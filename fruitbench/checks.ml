(* Output checks, run after a run's timing stops. A run fails when any
   check does; the failure count feeds [failed] / [failed_frac]. *)

module Config = Fruitchain_sim.Config
module Trace = Fruitchain_sim.Trace
module Params = Fruitchain_core.Params
module Extract = Fruitchain_core.Extract
module Types = Fruitchain_chain.Types
module Validate = Fruitchain_chain.Validate
module Hash = Fruitchain_crypto.Hash
module Oracle = Fruitchain_crypto.Oracle
module Quality = Fruitchain_metrics.Quality
module Consistency = Fruitchain_metrics.Consistency
module Metrics = Fruitchain_obs.Metrics
module Rng = Fruitchain_util.Rng

(* Fairness tolerance: the adversary's share of ledger fruits must lie in
   (1 ± delta)·rho, widened by [sigmas] binomial standard deviations of
   the share over the run's fruit count. *)
let fairness_delta = 0.2
let sigmas = 5.0

(* Flip one bit of the fruit-set digest of the first block that carries
   fruits: a chain whose commitment no longer matches its fruits. *)
let tamper chain =
  let flipped = ref false in
  List.map
    (fun (b : Types.block) ->
      if !flipped || b.Types.fruits = [] then b
      else begin
        flipped := true;
        let raw = Bytes.of_string (Hash.to_raw b.Types.b_header.Types.digest) in
        Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) lxor 1));
        {
          b with
          Types.b_header = { b.Types.b_header with Types.digest = Hash.of_raw (Bytes.to_string raw) };
        }
      end)
    chain

(* Checks every workload's run gets: the oracle charged n × rounds
   attempts, and the honest final chain is valid with recency. *)
let common ~tampered trace =
  let config = Trace.config trace in
  let params = config.Config.params in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let expected = config.Config.n * config.Config.rounds in
  if Trace.oracle_queries trace <> expected then
    fail "oracle.queries %d <> n x rounds %d" (Trace.oracle_queries trace) expected;
  let chain = Trace.honest_final_chain trace in
  let chain = if tampered then tamper chain else chain in
  let oracle = Oracle.sim ~p:params.Params.p ~pf:params.Params.pf (Rng.of_seed 0L) in
  (match Validate.valid_chain oracle ~recency:(Some (Params.recency_window params)) chain with
  | Ok () -> ()
  | Error e -> fail "honest final chain invalid: %s" (Format.asprintf "%a" Validate.pp_chain_error e));
  (chain, List.rev !errors)

let kappa_and_fairness trace chain =
  let config = Trace.config trace in
  let kappa = config.Config.params.Params.kappa in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let report = Consistency.measure trace in
  (match Consistency.violations report ~t0:kappa with
  | 0, 0 -> ()
  | pw, rb -> fail "kappa-consistency violated (kappa %d): %d pairwise, %d rollback" kappa pw rb);
  let shares = Quality.fruit_shares (Extract.fruits_of_chain chain) in
  let total = Quality.total shares in
  let rho = float_of_int (Config.corrupt_count config) /. float_of_int config.Config.n in
  let share = Quality.adversarial_fraction shares in
  let sd = sqrt (rho *. (1.0 -. rho) /. float_of_int (max 1 total)) in
  if total = 0 then fail "no fruits in the ledger"
  else if Float.abs (share -. rho) > (fairness_delta *. rho) +. (sigmas *. sd) then
    fail "adversarial fruit share %.4f outside (1 +- %.2f)rho = %.4f +- %.4f" share
      fairness_delta rho ((fairness_delta *. rho) +. (sigmas *. sd));
  List.rev !errors

(* Sparse plane: block and fruit win totals against Binomial(n·rounds, p). *)
let win_totals trace =
  let config = Trace.config trace in
  let params = config.Config.params in
  let blocks = ref 0 and fruits = ref 0 in
  Trace.iter_events trace ~f:(fun (e : Trace.event) ->
      match e.Trace.kind with `Block -> incr blocks | `Fruit -> incr fruits);
  let trials = float_of_int (config.Config.n * config.Config.rounds) in
  let check what count p =
    let mean = trials *. p in
    let sd = sqrt (trials *. p *. (1.0 -. p)) in
    if Float.abs (float_of_int count -. mean) <= sigmas *. sd then []
    else [ Printf.sprintf "%s wins %d outside %.1f +- %.0f sigma (%.1f)" what count mean sigmas sd ]
  in
  check "block" !blocks params.Params.p @ check "fruit" !fruits params.Params.pf

let run_checks kind ~tampered (r : Workloads.result) =
  List.concat_map
    (fun trace ->
      let chain, errors = common ~tampered trace in
      errors
      @
      match kind with
      | Workloads.Cli_default | Workloads.Selfish_n200 -> kappa_and_fairness trace chain
      | Workloads.Sparse_100k -> win_totals trace
      (* A kappa-violation during the partition is the expected result
         (E19), not a failure. *)
      | Workloads.Storm_gossip -> [])
    r.Workloads.traces

let counter m name = Option.value ~default:0 (Metrics.get_counter m name)

(* Checks on the metrics-scoped pass: queries charged, and no message
   delivered that was never sent. *)
let counts_checks m ~attempts =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let q = counter m "oracle.queries" in
  if q <> attempts then fail "metrics oracle.queries %d <> n x rounds %d" q attempts;
  let sent = counter m "net.sent" and delivered = counter m "net.delivered" in
  if delivered > sent then fail "net.delivered %d > net.sent %d" delivered sent;
  List.rev !errors

(* Digest of every trial's final heads: equal runs of one seed must
   agree on it. *)
let heads_digest (r : Workloads.result) =
  let b = Stdlib.Buffer.create 1024 in
  List.iter
    (fun t -> Array.iter (fun h -> Stdlib.Buffer.add_string b (Hash.to_raw h)) (Trace.final_heads t))
    r.Workloads.traces;
  Digest.to_hex (Digest.string (Stdlib.Buffer.contents b))
