(* The four workloads: inputs generated from the benchmark seed, and one
   workload run = set-up, simulation, then the summary the CLI prints.
   Each run calls the library's public functions the way [fruitchain sim]
   and [fruitchain scenario run] do, and stamps the phase boundaries the
   end-to-end metrics are made of. *)

module Config = Fruitchain_sim.Config
module Engine = Fruitchain_sim.Engine
module Trace = Fruitchain_sim.Trace
module Strategy = Fruitchain_sim.Strategy
module Params = Fruitchain_core.Params
module Extract = Fruitchain_core.Extract
module Runs = Fruitchain_experiments.Runs
module Quality = Fruitchain_metrics.Quality
module Growth = Fruitchain_metrics.Growth
module Consistency = Fruitchain_metrics.Consistency
module Scope = Fruitchain_obs.Scope
module Flight = Fruitchain_obs.Flight
module Metrics = Fruitchain_obs.Metrics
module Tracer = Fruitchain_obs.Tracer
module Json = Fruitchain_obs.Json
module Pool = Fruitchain_util.Pool
module Rng = Fruitchain_util.Rng
module Table = Fruitchain_util.Table
module Scenario = Fruitchain_scenario.Scenario
module Loader = Fruitchain_scenario.Loader
module Driver = Fruitchain_scenario.Driver

let now_ns = Probe.now_ns

type kind = Cli_default | Selfish_n200 | Storm_gossip | Sparse_100k

let all = [ Cli_default; Selfish_n200; Storm_gossip; Sparse_100k ]

let name = function
  | Cli_default -> "cli-default"
  | Selfish_n200 -> "selfish-n200"
  | Storm_gossip -> "storm-gossip"
  | Sparse_100k -> "sparse-100k"

let of_name s = List.find_opt (fun k -> name k = s) all

type size = Full | Tiny

(* Run lengths: one workload run is a fraction of a measured second
   budget, so a run's median rests on several runs. *)
let rounds kind size =
  match (kind, size) with
  | Cli_default, Full -> 10_000
  | Selfish_n200, Full -> 300
  | Storm_gossip, Full -> 1_000
  | Sparse_100k, Full -> 100_000
  | Cli_default, Tiny -> 1_000
  | Selfish_n200, Tiny -> 40
  | Storm_gossip, Tiny -> 300
  | Sparse_100k, Tiny -> 5_000

(* Everything the program receives, made from the benchmark seed. *)
type input = {
  kind : kind;
  seed : int64;
  rounds : int;
  scenario_path : string;  (** storm-gossip's timeline file; "" otherwise. *)
  flight_prefix : string;  (** cli-default's flight-recorder dump prefix. *)
}

(* The CLI's defaults for [fruitchain sim]; selfish-n200 changes only n
   and drops the CLI-only observability; sparse-100k is E22's largest
   configuration. *)
type sim_spec = {
  n : int;
  rho : float;
  p : float;
  q : float;
  kappa : int;
  engine : Config.engine;
  strategy : (module Strategy.S);
  flight : bool;
  probes : bool;
  e22_snapshots : bool;
}

let sim_spec = function
  | Cli_default ->
      {
        n = 20; rho = 0.25; p = 0.002; q = 10.0; kappa = 8; engine = Config.Exact;
        strategy = Runs.selfish ~gamma:0.5; flight = true; probes = true;
        e22_snapshots = false;
      }
  | Selfish_n200 ->
      {
        n = 200; rho = 0.25; p = 0.002; q = 10.0; kappa = 8; engine = Config.Exact;
        strategy = Runs.selfish ~gamma:0.5; flight = false; probes = false;
        e22_snapshots = false;
      }
  | Sparse_100k ->
      {
        n = 100_000; rho = 0.25; p = 0.01 /. 100_000.0; q = 50.0; kappa = 8;
        engine = Config.Sparse; strategy = Runs.honest_coalition; flight = false;
        probes = false; e22_snapshots = true;
      }
  | Storm_gossip -> invalid_arg "sim_spec: storm-gossip is a scenario workload"

let storm_n = 40
let storm_rho = 0.1

(* A fruitstorm timeline over n = 40, rho = 0.1 with gossip relaying
   switched on early, then one delay spike, one churn, one eclipse and a
   two-group partition, in that order and never overlapping. The seed
   draws the parties, the partition split and the window positions;
   window lengths vary only by a few percent of the run, because held
   cross-group traffic (and with it the run's time and heap) grows with
   the partition's length. *)
let storm_scenario ~seed ~rounds =
  let rng = Rng.of_seed seed in
  let between lo hi = lo + Rng.int rng (max 1 (hi - lo)) in
  let r f = int_of_float (f *. float_of_int rounds) in
  let honest = storm_n - int_of_float (storm_rho *. float_of_int storm_n) in
  let spike_from = between (r 0.08) (r 0.15) in
  let churn_from = between (r 0.25) (r 0.32) in
  let churn_party = Rng.int rng honest in
  let eclipse_party = (churn_party + 1 + Rng.int rng (honest - 1)) mod honest in
  let eclipse_from = between (r 0.45) (r 0.52) in
  let part_from = between (r 0.62) (r 0.68) in
  let order = Array.init storm_n Fun.id in
  Fruitchain_util.Sampling.shuffle rng order;
  let half = storm_n / 2 in
  let group lo hi = List.sort Int.compare (Array.to_list (Array.sub order lo (hi - lo))) in
  let events =
    [
      Scenario.Gossip_toggle { at = between 0 (r 0.03); on = true };
      Scenario.Delay_spike
        { from = spike_from; until = spike_from + between (r 0.06) (r 0.08); delta' = between 6 9 };
      Scenario.Churn
        { from = churn_from; until = churn_from + between (r 0.09) (r 0.11); party = churn_party };
      Scenario.Eclipse
        {
          from = eclipse_from;
          until = eclipse_from + between (r 0.06) (r 0.08);
          party = eclipse_party;
        };
      Scenario.Partition
        {
          from = part_from;
          until = part_from + between (r 0.15) (r 0.17);
          groups = [ group 0 half; group half storm_n ];
        };
    ]
  in
  Scenario.make_exn ~name:"storm-gossip"
    ~description:"fruitbench storm: gossip, delay spike, churn, eclipse, partition"
    ~n:storm_n ~rho:storm_rho ~rounds ~seed ~trials:2 ~events ()

(* Input [index] of a benchmark seed. Every run of an invocation takes
   the next index, so a run's median spans many generated inputs and
   does not hang on one seed's luck (a selfish-mining run's cost varies
   by tens of percent from seed to seed). *)
let prepare kind ~seed ~index ~size ~workdir =
  let rounds = rounds kind size in
  let seed = Rng.derive (Int64.of_int seed) ~index in
  let scenario_path =
    match kind with
    | Storm_gossip ->
        let path = Filename.concat workdir (Printf.sprintf "storm-%Ld.json" seed) in
        let oc = open_out path in
        output_string oc (Scenario.to_string (storm_scenario ~seed ~rounds));
        output_char oc '\n';
        close_out oc;
        path
    | _ -> ""
  in
  { kind; seed; rounds; scenario_path; flight_prefix = Filename.concat workdir "flight-" }

(* How a run observes itself. [Own]: the workload's configured
   observability (cli-default's always-on flight recorder, nothing
   elsewhere). [Bare]: no scope at all, the flight recorder's baseline.
   [Counts]: a metrics registry and a tracer added on top of [Own]. *)
type obs = Own | Bare | Counts of Metrics.t * Tracer.t

type opts = {
  traced : bool;  (** Per-round recorder and spans (exact engine only). *)
  obs : obs;
  jobs : int;  (** storm-gossip's pool width. *)
  via_driver : bool;  (** storm-gossip through [Driver.run_trials] itself. *)
}

type call = {
  trace : Trace.t;
  start : int;
  stop : int;
  first_hook : int;  (** = [start] on the sparse plane. *)
  recorder : Probe.rounds option;
}

(* One engine call. Untraced, it adds only a round-0 stamp to the round
   hook. Traced, it attaches the per-round recorder. The sparse plane
   never gets a round hook: a live hook forces it to visit every round,
   which would change the work being measured. *)
let call_engine ~traced ~config ~strategy ?workload ?net_policy ?round_hook () =
  let inner = Option.value round_hook ~default:(fun ~scope:_ ~round:_ -> ()) in
  match config.Config.engine with
  | Config.Sparse ->
      let start = now_ns () in
      let trace = Engine.run ~config ~strategy ?workload ?net_policy () in
      { trace; start; stop = now_ns (); first_hook = start; recorder = None }
  | Config.Exact when traced ->
      let r = Probe.create_rounds config.Config.rounds in
      let base = Option.value workload ~default:(fun ~round:_ ~party:_ -> "") in
      let workload ~round ~party =
        Probe.on_callback r;
        base ~round ~party
      in
      let round_hook ~scope ~round =
        Probe.on_round r ~round;
        inner ~scope ~round
      in
      Probe.current := Some r;
      let start = now_ns () in
      let trace =
        Engine.run ~config ~strategy:(Probe.timed strategy) ~workload ?net_policy ~round_hook ()
      in
      let stop = now_ns () in
      Probe.current := None;
      { trace; start; stop; first_hook = r.Probe.hook.(0); recorder = Some r }
  | Config.Exact ->
      let first = ref 0 in
      let round_hook ~scope ~round =
        if round = 0 then first := now_ns ();
        inner ~scope ~round
      in
      let start = now_ns () in
      let trace = Engine.run ~config ~strategy ?workload ?net_policy ~round_hook () in
      { trace; start; stop = now_ns (); first_hook = !first; recorder = None }

type result = {
  wall_ns : int;  (** Set-up + simulation + summary. *)
  setup_ns : int;  (** To the first round hook (exact) or the engine call (sparse). *)
  sim_ns : int;  (** The engine call(s). *)
  measure_ns : int;  (** The summary. *)
  load_ns : int;  (** Scenario load and validation. *)
  busy_ns : int;  (** Sum over trials of engine + measure time. *)
  pool_ns : int;  (** The interval [cpu_s] covers: the engine call, or the pool fan-out. *)
  cpu_s : float;  (** Process CPU time over [pool_ns]. *)
  jobs : int;
  attempts : int;  (** n x rounds summed over trials. *)
  summary : string;  (** What the CLI prints. *)
  traces : Trace.t list;  (** Empty on the driver path. *)
  calls : call list;
  gc : Gc.stat * Gc.stat;  (** Around the simulate phase. *)
  spans : Probe.spans;  (** Filled by traced runs. *)
}

let attempts_of config = config.Config.n * config.Config.rounds

(* [fruitchain sim]'s summary, printed to a string. *)
let sim_summary ~config ~kappa trace =
  let b = Stdlib.Buffer.create 512 in
  let ppf = Format.formatter_of_buffer b in
  let chain = Trace.honest_final_chain trace in
  let fruits = Extract.fruits_of_chain chain in
  Format.fprintf ppf "config: %a@." Config.pp config;
  Format.fprintf ppf "chain blocks: %d, ledger fruits: %d@." (List.length chain)
    (List.length fruits);
  Format.fprintf ppf "adversarial block share: %.4f@."
    (Quality.adversarial_fraction (Quality.block_shares chain));
  Format.fprintf ppf "adversarial fruit share: %.4f@."
    (Quality.adversarial_fraction (Quality.fruit_shares fruits));
  let g = Growth.measure trace ~span_rounds:(max 1_000 (config.Config.rounds / 20)) in
  Format.fprintf ppf "block growth: mean %.5f, window min %.5f max %.5f per round@."
    g.Growth.mean_rate g.Growth.min_window_rate g.Growth.max_window_rate;
  let c = Consistency.measure trace in
  Format.fprintf ppf "consistency: max divergence %d, max rollback %d@."
    c.Consistency.max_pairwise_divergence c.Consistency.max_future_rollback;
  if c.Consistency.max_pairwise_divergence > kappa || c.Consistency.max_future_rollback > kappa
  then
    Scope.anomaly (Trace.scope trace) ~reason:"consistency.kappa"
      [
        ("kappa", Json.Int kappa);
        ("max_divergence", Json.Int c.Consistency.max_pairwise_divergence);
        ("max_rollback", Json.Int c.Consistency.max_future_rollback);
      ];
  Stdlib.Buffer.contents b

let scope_of opts ~flight_prefix ~flight =
  let flight () = if flight then Some (Flight.create ~prefix:flight_prefix ()) else None in
  match opts.obs with
  | Bare -> Scope.null
  | Own -> ( match flight () with Some f -> Scope.make ~flight:f () | None -> Scope.null)
  | Counts (m, tr) -> Scope.make ~metrics:m ~tracer:tr ?flight:(flight ()) ()

let run_sim inp opts =
  let spec = sim_spec inp.kind in
  let t0 = now_ns () in
  Pool.set_scope (scope_of opts ~flight_prefix:inp.flight_prefix ~flight:spec.flight);
  let params = Params.make ~p:spec.p ~pf:(spec.p *. spec.q) ~kappa:spec.kappa () in
  let snapshot_interval, head_snapshot_interval =
    if spec.e22_snapshots then (Some (max 1 (inp.rounds / 4)), Some inp.rounds) else (None, None)
  in
  let config =
    Config.make ~protocol:Config.Fruitchain ~engine:spec.engine ~n:spec.n ~rho:spec.rho
      ~delta:2 ~rounds:inp.rounds ~seed:inp.seed
      ~probe_interval:(if spec.probes then inp.rounds / 50 else 0)
      ?snapshot_interval ?head_snapshot_interval ~params ()
  in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Sys.time () in
  let c = call_engine ~traced:opts.traced ~config ~strategy:spec.strategy () in
  let cpu_s = Sys.time () -. cpu0 in
  let gc1 = Gc.quick_stat () in
  let m0 = now_ns () in
  let summary = sim_summary ~config ~kappa:spec.kappa c.trace in
  let t_end = now_ns () in
  Pool.set_scope Scope.null;
  let spans = Probe.spans () in
  if opts.traced then begin
    let root = Probe.add_span spans ~name:"workload" ~start:t0 ~stop:t_end ~parent:(-1) in
    ignore (Probe.add_span spans ~name:"setup" ~start:t0 ~stop:c.start ~parent:root);
    let eng = Probe.add_span spans ~name:"engine" ~start:c.start ~stop:c.stop ~parent:root in
    Option.iter
      (fun r -> Probe.add_round_spans spans r ~parent:eng ~engine_start:c.start ~engine_stop:c.stop)
      c.recorder;
    ignore (Probe.add_span spans ~name:"metrics.measure" ~start:c.stop ~stop:t_end ~parent:root)
  end;
  {
    wall_ns = t_end - t0;
    setup_ns = c.first_hook - t0;
    sim_ns = c.stop - c.start;
    measure_ns = t_end - m0;
    load_ns = 0;
    busy_ns = c.stop - c.start;
    pool_ns = c.stop - c.start;
    cpu_s;
    jobs = 1;
    attempts = attempts_of config;
    summary;
    traces = [ c.trace ];
    calls = [ c ];
    gc = (gc0, gc1);
    spans;
  }

(* [Driver.run_trial]'s measurement, on a trace this benchmark ran
   itself through the same public pieces ([Driver.config], [strategy],
   [workload], [policy], [round_hook]). The untimed jobs-1 pass through
   [Driver.run_trials] must print the same table, which pins the two
   paths together. *)
let measure_trial ~kappa ~index trace =
  let chain = Trace.honest_final_chain trace in
  let report = Consistency.measure trace in
  let pairwise, rollback = Consistency.violations report ~t0:kappa in
  if pairwise + rollback > 0 then
    Scope.anomaly (Trace.scope trace) ~reason:"consistency.kappa"
      [
        ("trial", Json.Int index);
        ("kappa", Json.Int kappa);
        ("max_divergence", Json.Int report.Consistency.max_pairwise_divergence);
        ("max_rollback", Json.Int report.Consistency.max_future_rollback);
      ];
  let honest_head =
    match Trace.honest_parties trace with
    | p :: _ -> Trace.final_head_of trace ~party:p
    | [] -> Trace.final_head_of trace ~party:0
  in
  {
    Driver.trial = index;
    blocks = List.length chain;
    max_divergence = report.Consistency.max_pairwise_divergence;
    max_rollback = report.Consistency.max_future_rollback;
    consistency_violation = pairwise + rollback > 0;
    adv_block_share = Quality.adversarial_fraction (Quality.block_shares chain);
    adv_fruit_share =
      Quality.adversarial_fraction
        (Quality.chain_fruit_shares (Trace.store trace) ~head:honest_head);
  }

(* [fruitchain scenario run]'s output. *)
let scenario_summary (s : Scenario.t) trials =
  Format.asprintf "scenario: %s@.%s@.events: %d, rounds: %d, n: %d, rho: %g, seed: %Ld@.%a@."
    s.Scenario.name s.Scenario.description (List.length s.Scenario.events) s.Scenario.rounds
    s.Scenario.n s.Scenario.rho s.Scenario.seed Table.pp (Driver.table s trials)

let run_storm inp opts =
  let t0 = now_ns () in
  Pool.set_scope (scope_of opts ~flight_prefix:inp.flight_prefix ~flight:false);
  let s =
    match Loader.load inp.scenario_path with
    | Ok s -> s
    | Error diags -> failwith (String.concat "; " (List.map Loader.to_string_diag diags))
  in
  let t_loaded = now_ns () in
  let attempts = s.Scenario.trials * s.Scenario.n * s.Scenario.rounds in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Sys.time () in
  let p0 = now_ns () in
  let trials, calls, busy =
    if opts.via_driver then (Driver.run_trials ~jobs:opts.jobs s, [], 0)
    else begin
      let per_trial =
        Pool.map ~jobs:opts.jobs s.Scenario.trials ~f:(fun i ->
            let config = Driver.config ~seed:(Rng.derive s.Scenario.seed ~index:i) s in
            let c =
              call_engine ~traced:opts.traced ~config ~strategy:(Driver.strategy s)
                ~workload:(Driver.workload s) ~net_policy:(Driver.policy s)
                ~round_hook:(Driver.round_hook s) ()
            in
            let trial = measure_trial ~kappa:s.Scenario.kappa ~index:i c.trace in
            (c, trial, now_ns () - c.start))
      in
      let per_trial = Array.to_list per_trial in
      ( List.map (fun (_, t, _) -> t) per_trial,
        List.map (fun (c, _, _) -> c) per_trial,
        List.fold_left (fun acc (_, _, b) -> acc + b) 0 per_trial )
    end
  in
  let p1 = now_ns () in
  let cpu_s = Sys.time () -. cpu0 in
  let gc1 = Gc.quick_stat () in
  let summary = scenario_summary s trials in
  let t_end = now_ns () in
  Pool.set_scope Scope.null;
  let min_of f = List.fold_left (fun acc c -> min acc (f c)) max_int calls in
  let max_of f = List.fold_left (fun acc c -> max acc (f c)) 0 calls in
  let first_hook, sim_start, sim_stop =
    match calls with
    | [] -> (p0, p0, p1)
    | _ -> (min_of (fun c -> c.first_hook), min_of (fun c -> c.start), max_of (fun c -> c.stop))
  in
  let spans = Probe.spans () in
  if opts.traced then begin
    let root = Probe.add_span spans ~name:"workload" ~start:t0 ~stop:t_end ~parent:(-1) in
    ignore (Probe.add_span spans ~name:"loader.load" ~start:t0 ~stop:t_loaded ~parent:root);
    ignore (Probe.add_span spans ~name:"setup" ~start:t_loaded ~stop:p0 ~parent:root);
    (* Traced runs are sequential (jobs 1): engine calls and their
       measurements alternate inside the pool span. *)
    let pool = Probe.add_span spans ~name:"pool" ~start:p0 ~stop:p1 ~parent:root in
    List.iter
      (fun c ->
        let eng = Probe.add_span spans ~name:"engine" ~start:c.start ~stop:c.stop ~parent:pool in
        Option.iter
          (fun r -> Probe.add_round_spans spans r ~parent:eng ~engine_start:c.start ~engine_stop:c.stop)
          c.recorder)
      calls;
    ignore (Probe.add_span spans ~name:"metrics.measure" ~start:p1 ~stop:t_end ~parent:root)
  end;
  {
    wall_ns = t_end - t0;
    setup_ns = first_hook - t0;
    sim_ns = sim_stop - sim_start;
    measure_ns = t_end - p1 + (busy - List.fold_left (fun acc c -> acc + (c.stop - c.start)) 0 calls);
    load_ns = t_loaded - t0;
    busy_ns = busy;
    pool_ns = p1 - p0;
    cpu_s;
    jobs = opts.jobs;
    attempts;
    summary;
    traces = List.map (fun c -> c.trace) calls;
    calls;
    gc = (gc0, gc1);
    spans;
  }

let run inp opts =
  match inp.kind with Storm_gossip -> run_storm inp opts | _ -> run_sim inp opts

(* The run's resolved configuration, recorded beside the metrics. *)
let describe inp =
  match inp.kind with
  | Storm_gossip -> (
      match Loader.load inp.scenario_path with
      | Ok s -> Scenario.to_json s
      | Error _ -> Json.Null)
  | _ ->
      let spec = sim_spec inp.kind in
      let (module S : Strategy.S) = spec.strategy in
      Json.Obj
        [
          ( "engine",
            Json.Str (match spec.engine with Config.Exact -> "exact" | Config.Sparse -> "sparse") );
          ("n", Json.Int spec.n);
          ("rho", Json.Float spec.rho);
          ("delta", Json.Int 2);
          ("rounds", Json.Int inp.rounds);
          ("seed", Json.Str (Int64.to_string inp.seed));
          ("p", Json.Float spec.p);
          ("q", Json.Float spec.q);
          ("kappa", Json.Int spec.kappa);
          ("adversary", Json.Str S.name);
          ("flight", Json.Bool spec.flight);
          ("probe_interval", Json.Int (if spec.probes then inp.rounds / 50 else 0));
        ]
