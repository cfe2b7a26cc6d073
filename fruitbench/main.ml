(* fruitbench: one workload, one seed, one measured time budget.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--workdir DIR] [--profile NAME] [--size full|tiny] [--tamper]

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   is the separate traced run that attributes the workload's time to the
   library's layers. Either way every run's output is checked after its
   timing stops, and the last line of standard output is the result
   object (correct, attempted, failed, metrics). README.md lists the
   metrics and workloads. *)

module Pool = Fruitchain_util.Pool
module Metrics = Fruitchain_obs.Metrics
module Tracer = Fruitchain_obs.Tracer
module Json = Fruitchain_obs.Json
module W = Workloads

let end_to_end_units =
  [ ("attempts_per_s", "1/s"); ("wall_s", "s"); ("setup_s", "s"); ("peak_heap_mb", "MiB") ]

let per_layer_units =
  [
    ("engine.setup_s", "s");
    ("engine.honest_phase_s", "s");
    ("strategy.act_s", "s");
    ("engine.observe_phase_s", "s");
    ("engine.finish_s", "s");
    ("engine.phase_coverage", "ratio");
    ("node.segment_us.p50", "us");
    ("node.segment_us.p99", "us");
    ("strategy.schedule_calls", "count");
    ("metrics.measure_s", "s");
    ("loader.load_s", "s");
    ("pool.cpu_per_wall", "ratio");
    ("pool.idle_s", "s");
    ("flight.overhead_ratio", "ratio");
    ("gc.minor_words_per_attempt", "words");
    ("gc.promoted_words", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_s", "s");
    ("oracle.queries", "count");
    ("oracle.wins", "count");
    ("network.sent", "count");
    ("network.delivered", "count");
    ("network.deliveries_per_mint", "ratio");
    ("node.head_switch_ratio", "ratio");
    ("node.reorg_depth.p99", "blocks");
    ("sparse.visit_ratio", "ratio");
    ("sparse.alias_rebuilds", "count");
    ("scope.lines_per_attempt", "ratio");
    ("sha256.digest_ns", "ns");
    ("sha256.digest_words", "words/op");
    ("merkle.fruit_set_digest_us", "us");
    ("merkle.fruit_set_digest_words", "words/op");
    ("codec.block_encode_us", "us");
    ("codec.block_encode_words", "words/op");
    ("codec.block_decode_us", "us");
    ("codec.block_decode_words", "words/op");
    ("validate.valid_block_us", "us");
    ("validate.valid_block_words", "words/op");
    ("validate.valid_fruit_ns", "ns");
    ("validate.valid_fruit_words", "words/op");
    ("store.ancestor_ns", "ns");
    ("store.ancestor_words", "words/op");
    ("store.common_prefix_ns", "ns");
    ("store.common_prefix_words", "words/op");
    ("buffer.add_ns", "ns");
    ("buffer.add_words", "words/op");
    ("buffer.refresh_us", "us");
    ("buffer.refresh_words", "words/op");
    ("window_view.cache_view_ns", "ns");
    ("window_view.cache_view_words", "words/op");
    ("network.broadcast_drain_ns", "ns");
    ("network.broadcast_drain_words", "words/op");
    ("oracle.attempt_ns", "ns");
    ("oracle.attempt_words", "words/op");
    ("sampling.binomial_pos_ns", "ns");
    ("sampling.binomial_pos_words", "words/op");
    ("alias.sample_ns", "ns");
    ("alias.sample_words", "words/op");
    ("scope.emit_ns", "ns");
    ("scope.emit_words", "words/op");
    ("analyze.lines_per_s", "1/s");
    ("analyze.words_per_line", "words/op");
  ]

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let secs = Probe.secs

(* ------------------------------------------------------------------ *)
(* Arguments *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let workdir = ref ".bench_build/fruitbench"
let profile = ref "unknown"
let size = ref "full"
let tampered = ref false
let size_v = ref W.Full

let spec =
  [
    ( "--workload",
      Arg.Set_string workload,
      "NAME one of cli-default, selfish-n200, storm-gossip, sparse-100k" );
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S measured time budget");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ("--workdir", Arg.Set_string workdir, "DIR scratch directory for generated inputs and outputs");
    ("--profile", Arg.Set_string profile, "NAME build profile, recorded beside the metrics");
    ("--size", Arg.Set_string size, "full|tiny run length (tiny: the self-test)");
    ("--tamper", Arg.Set tampered, " corrupt the first run's chain before checking it");
  ]

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("fruitbench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Checked runs *)

type book = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  first : (int, string * string option) Hashtbl.t;
      (** Per input index: the first run's summary and final-heads digest. *)
}

let book = { attempted = 0; failed = 0; errors = []; first = Hashtbl.create 64 }

(* Every run of one input must print the same summary and end on the
   same final heads; the first run of the input fixes both. *)
let determinism ~index (r : W.result) =
  let heads = if r.W.traces = [] then None else Some (Checks.heads_digest r) in
  match Hashtbl.find_opt book.first index with
  | None ->
      Hashtbl.replace book.first index (r.W.summary, heads);
      []
  | Some (summary, heads0) ->
      (if summary <> r.W.summary then [ "summary differs from the first run's" ] else [])
      @
      match (heads0, heads) with
      | Some h0, Some h when h0 <> h -> [ "final heads differ from the first run's" ]
      | _ -> []

let record ?(extra = []) kind ~index (r : W.result) =
  let tamper = !tampered && book.attempted = 0 in
  book.attempted <- book.attempted + 1;
  let errs = Checks.run_checks kind ~tampered:tamper r @ determinism ~index r @ extra in
  if errs <> [] then begin
    book.failed <- book.failed + 1;
    book.errors <- book.errors @ errs
  end

let input kind index = W.prepare kind ~seed:!seed ~index ~size:!size_v ~workdir:!workdir

(* One run on input [index], its checks, and the checks' interval. *)
let run_checked ?extra kind ~index opts =
  let inp = input kind index in
  Gc.full_major ();
  let r = W.run inp opts in
  let c0 = Probe.now_ns () in
  record ?extra kind ~index r;
  (r, c0, Probe.now_ns ())

(* The metrics-scoped pass on input 0: counts repeat exactly, so one
   untimed run gives them. storm-gossip goes through [Driver.run_trials]
   at jobs 1 here, so its table is also compared with the timed run's
   (jobs 2) by the determinism check. *)
let counts_pass kind =
  let m = Metrics.create () in
  let tr = Tracer.ring 20_000 in
  let opts =
    { W.traced = false; obs = W.Counts (m, tr); jobs = 1; via_driver = kind = W.Storm_gossip }
  in
  let inp = input kind 0 in
  Gc.full_major ();
  let r = W.run inp opts in
  record ~extra:(Checks.counts_checks m ~attempts:r.W.attempts) kind ~index:0 r;
  (m, tr, r)

(* ------------------------------------------------------------------ *)
(* Output *)

let fmt_float v = Printf.sprintf "%.17g" (if Float.is_finite v then v else 0.0)

let print_result metrics =
  List.iter
    (fun (name, unit, v) -> Printf.printf "metric %-32s %s %s\n" name (fmt_float v) unit)
    metrics;
  Printf.printf "metric %-32s %s ratio\n" "failed_frac"
    (fmt_float (float_of_int book.failed /. float_of_int (max 1 book.attempted)));
  List.iter (fun e -> Printf.printf "check failed: %s\n" e) book.errors;
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (fmt_float v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (book.failed = 0) book.attempted book.failed (String.concat ", " fields)

(* Digest of input 0's final heads and summary and of the golden metric
   dump: equal for every invocation with one seed. *)
let run_digest m =
  let summary, heads =
    Option.value (Hashtbl.find_opt book.first 0) ~default:("", None)
  in
  Digest.to_hex
    (Digest.string (String.concat "\n" [ Option.value heads ~default:""; summary; Metrics.dump m ]))

(* The seed, input 0's resolved configuration, the host and the build,
   printed beside the metrics; the per-run samples go to the record file
   in the work directory. *)
let report kind ~m ~runs ~samples metrics =
  let context =
    Json.Obj
      [
        ("workload", Json.Str (W.name kind));
        ("seed", Json.Int !seed);
        ("inputs", Json.Str "run i takes input i, derived from the seed; input 0 shown");
        ("config", W.describe (input kind 0));
        ("nproc", Json.Int (Pool.available ()));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("profile", Json.Str !profile);
        ("size", Json.Str !size);
        ("trace", Json.Int !trace);
        ("runs", Json.Int runs);
        ("digest", Json.Str (run_digest m));
      ]
  in
  let path =
    Filename.concat !workdir (Printf.sprintf "record-%s-%d-trace%d.json" (W.name kind) !seed !trace)
  in
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("context", context);
            ("samples", Json.List samples);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit, v) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
                   metrics) );
            ("errors", Json.List (List.map (fun e -> Json.Str e) book.errors));
          ]));
  output_char oc '\n';
  close_out oc;
  print_endline ("context: " ^ Json.to_string context);
  print_result metrics

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics *)

let timed_jobs kind = match kind with W.Storm_gossip -> min 2 (Pool.available ()) | _ -> 1
let min_runs = 5

(* Warm-up runs on the first inputs, before any timed run. They run on
   one domain (storm-gossip's trials sequentially), so the peak major
   heap read after them does not depend on how two domains allocating
   concurrently interleave. *)
let warm_up_inputs = 3

let end_to_end kind =
  let opts = { W.traced = false; obs = W.Own; jobs = timed_jobs kind; via_driver = false } in
  for index = 0 to warm_up_inputs - 1 do
    ignore (run_checked kind ~index { opts with W.jobs = 1 })
  done;
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let deadline = Probe.now_ns () + int_of_float (!seconds *. 1e9) in
  let samples = ref [] in
  while
    (Probe.now_ns () < deadline || List.length !samples < min_runs) && List.length !samples < 10_000
  do
    let r, _, _ = run_checked kind ~index:(List.length !samples) opts in
    samples := (r.W.attempts, r.W.sim_ns, r.W.wall_ns, r.W.setup_ns) :: !samples
  done;
  let m, _, _ = counts_pass kind in
  let s = List.rev !samples in
  let metrics =
    [
      ("attempts_per_s", median (List.map (fun (a, sim, _, _) -> float_of_int a /. secs sim) s));
      ("wall_s", median (List.map (fun (_, _, w, _) -> secs w) s));
      ("setup_s", median (List.map (fun (_, _, _, st) -> secs st) s));
      ("peak_heap_mb", float_of_int (peak_words * (Sys.word_size / 8)) /. 1048576.0);
    ]
  in
  let sample (a, sim, w, st) =
    Json.Obj
      [
        ("attempts", Json.Int a);
        ("sim_s", Json.Float (secs sim));
        ("wall_s", Json.Float (secs w));
        ("setup_s", Json.Float (secs st));
      ]
  in
  report kind ~m ~runs:(List.length s) ~samples:(List.map sample s)
    (List.map (fun (n, v) -> (n, List.assoc n end_to_end_units, v)) metrics)

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics *)

(* The runs of one cycle share an input, so overheads are paired:
   [Plain] is the timed configuration, [Plain_seq] storm-gossip's at
   jobs 1 (the traced run's baseline), [Bare] cli-default without its
   flight recorder. *)
type variant = Plain | Plain_seq | Bare | Traced

let variants = function
  | W.Cli_default -> [ Plain; Bare; Traced ]
  | W.Storm_gossip -> [ Plain; Plain_seq; Traced ]
  | W.Selfish_n200 | W.Sparse_100k -> [ Plain; Traced ]

let opts_of kind = function
  | Plain -> { W.traced = false; obs = W.Own; jobs = timed_jobs kind; via_driver = false }
  | Plain_seq -> { W.traced = false; obs = W.Own; jobs = 1; via_driver = false }
  | Bare -> { W.traced = false; obs = W.Bare; jobs = 1; via_driver = false }
  | Traced -> { W.traced = true; obs = W.Own; jobs = 1; via_driver = false }

let phase_metrics (r : W.result) =
  let self = Probe.self_times r.W.spans in
  let engine_wall = List.fold_left (fun acc c -> acc + (c.W.stop - c.W.start)) 0 r.W.calls in
  let phases =
    [ "engine.setup"; "engine.honest"; "strategy.act"; "engine.observe"; "engine.finish" ]
  in
  let covered = List.fold_left (fun acc p -> acc +. self p) 0.0 phases in
  let seg = Probe.Hist.create () in
  List.iter
    (fun c -> Option.iter (fun rc -> Probe.Hist.merge ~into:seg rc.Probe.segments) c.W.recorder)
    r.W.calls;
  let schedule_calls =
    List.fold_left
      (fun acc c -> match c.W.recorder with Some rc -> acc + rc.Probe.schedule_calls | None -> acc)
      0 r.W.calls
  in
  let gc0, gc1 = r.W.gc in
  [
    ("engine.setup_s", self "engine.setup");
    ("engine.honest_phase_s", self "engine.honest");
    ("strategy.act_s", self "strategy.act");
    ("engine.observe_phase_s", self "engine.observe");
    ("engine.finish_s", self "engine.finish");
    ("engine.phase_coverage", if engine_wall > 0 then covered /. secs engine_wall else 0.0);
    ("node.segment_us.p50", Probe.Hist.quantile seg 0.5 /. 1e3);
    ("node.segment_us.p99", Probe.Hist.quantile seg 0.99 /. 1e3);
    ("strategy.schedule_calls", float_of_int schedule_calls);
    ("metrics.measure_s", secs r.W.measure_ns);
    ( "gc.minor_words_per_attempt",
      (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 r.W.attempts) );
    ("gc.promoted_words", gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
    ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  ]

let count_metrics kind m tr ~attempts =
  let c name = float_of_int (Checks.counter m name) in
  let mints =
    c "sim.mint.fruit.honest" +. c "sim.mint.fruit.adversary" +. c "sim.mint.block.honest"
    +. c "sim.mint.block.adversary"
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let reorg_p99 =
    let ( >>= ) = Option.bind in
    Option.value ~default:0
      (Json.member "histograms" (Metrics.to_json m) >>= Json.member "sim.reorg_depth"
      >>= Json.member "p99" >>= Json.to_int)
  in
  [
    ("oracle.queries", c "oracle.queries");
    ("oracle.wins", c "oracle.wins.block" +. c "oracle.wins.fruit");
    ("network.sent", c "net.sent");
    ("network.delivered", c "net.delivered");
    ("network.deliveries_per_mint", ratio (c "net.delivered") mints);
    ( "node.head_switch_ratio",
      ratio (c "sim.head_switches") (c "sim.head_switches" +. c "sim.head_extends") );
    ("node.reorg_depth.p99", float_of_int reorg_p99);
    ("sparse.visit_ratio", ratio (c "sim.rounds_visited") (c "sim.rounds"));
    ("sparse.alias_rebuilds", c "sim.alias_rebuilds");
    ( "scope.lines_per_attempt",
      (* Only cli-default's own configuration emits lines (its flight
         recorder); every other workload runs with the null scope. *)
      if kind = W.Cli_default then float_of_int (Tracer.emitted tr) /. float_of_int (max 1 attempts)
      else 0.0 );
  ]

let per_layer kind =
  ignore (run_checked kind ~index:0 (opts_of kind Plain));
  let deadline = Probe.now_ns () + int_of_float (!seconds *. 0.6e9) in
  let cycles = ref [] and last_traced = ref None in
  while (Probe.now_ns () < deadline || List.length !cycles < 2) && List.length !cycles < 1_000 do
    let index = List.length !cycles in
    let runs =
      List.map
        (fun v ->
          let r, c0, c1 = run_checked kind ~index (opts_of kind v) in
          if v = Traced then last_traced := Some (r, c0, c1);
          (v, { r with W.traces = []; calls = [] }, if v = Traced then phase_metrics r else []))
        (variants kind)
    in
    cycles := runs :: !cycles
  done;
  let cycles = List.rev !cycles in
  let find v runs = List.find (fun (v', _, _) -> v' = v) runs in
  let per_cycle f = median (List.map f cycles) in
  let wall v runs = let _, r, _ = find v runs in secs r.W.wall_ns in
  let plain f = per_cycle (fun runs -> let _, r, _ = find Plain runs in f r) in
  let baseline = if kind = W.Storm_gossip then Plain_seq else Plain in
  let m, tr, counts = counts_pass kind in
  let last, c0, c1 = Option.get !last_traced in
  ignore (Probe.add_span last.W.spans ~name:"checks" ~start:c0 ~stop:c1 ~parent:(-1));
  Probe.write_spans last.W.spans
    (Filename.concat !workdir (Printf.sprintf "spans-%s-%d.jsonl" (W.name kind) !seed));
  let phases =
    List.map
      (fun (name, _) ->
        (name, per_cycle (fun runs -> let _, _, p = find Traced runs in List.assoc name p)))
      (let _, _, p = find Traced (List.hd cycles) in p)
  in
  let overhead = per_cycle (fun runs -> wall Traced runs -. wall baseline runs) in
  let pool =
    [
      ("loader.load_s", plain (fun r -> secs r.W.load_ns));
      ("pool.cpu_per_wall", plain (fun r -> r.W.cpu_s /. secs (max 1 r.W.pool_ns)));
      ("pool.idle_s", plain (fun r -> Float.max 0.0 (secs ((r.W.jobs * r.W.pool_ns) - r.W.busy_ns))));
      ( "flight.overhead_ratio",
        if kind = W.Cli_default then per_cycle (fun runs -> wall Plain runs /. wall Bare runs)
        else 0.0 );
      ("trace.overhead_s", overhead);
    ]
  in
  let kernels =
    Kernels.run ~trace:(List.hd last.W.traces) ~trace_lines:(Tracer.lines tr) ~workdir:!workdir
  in
  let values = phases @ pool @ count_metrics kind m tr ~attempts:counts.W.attempts @ kernels in
  Printf.printf "tracing overhead: traced wall - untraced wall = %.4f s (median over %d paired runs)\n"
    overhead (List.length cycles);
  let variant_name = function
    | Plain -> "plain"
    | Plain_seq -> "plain_jobs1"
    | Bare -> "bare"
    | Traced -> "traced"
  in
  let sample runs =
    Json.Obj (List.map (fun (v, r, _) -> (variant_name v, Json.Float (secs r.W.wall_ns))) runs)
  in
  report kind ~m ~runs:(List.length cycles) ~samples:(List.map sample cycles)
    (List.map
       (fun (name, unit) ->
         match List.assoc_opt name values with
         | Some v -> (name, unit, v)
         | None -> die "per-layer metric %s was not computed" name)
       per_layer_units)

let () =
  Arg.parse spec (fun a -> die "unexpected argument %s" a) usage;
  let kind = match W.of_name !workload with Some k -> k | None -> die "unknown workload %S" !workload in
  (size_v := match !size with "full" -> W.Full | "tiny" -> W.Tiny | s -> die "unknown size %S" s);
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if not (Sys.file_exists !workdir) then die "work directory %s does not exist" !workdir;
  if !trace = 0 then end_to_end kind else per_layer kind
