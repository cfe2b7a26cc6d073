(* fruittrace span suite.

   Three contracts from the observability layer (lib/obs/span.ml +
   lib/sim/lifecycle.ml):

   1. Span-bearing traces are jobs-invariant. test_determinism.ml already
      pins trace byte-identity for the scoped experiments; this suite adds
      the sharper claim for E01 and E19 that the traces actually CARRY
      lifecycle spans (a silent `Lifecycle.create` regression to `None`
      would keep byte-identity while deleting the feature).

   2. Exact and sparse engines emit the same schema: for every span event
      name x entity combination, and for every event of the shared round
      driver (run.start/end, heights, net, corrupt, uncorrupt,
      scenario.gossip), the sorted field-key set of the emitted JSON
      objects is identical across planes; both planes emit fruit and block
      spans, and scheduled events land on their schedule rounds. The planes
      cannot agree on *values* (different randomness consumption), so the
      schema is the interface the offline analyzer depends on.

   3. The analyzer is a pure function of the trace bytes: summarizing the
      same lines twice is byte-identical, and `Analyze.diff` of a summary
      with itself is empty — the property the CI jobs-axis `--diff` check
      builds on. *)

module Exp = Fruitchain_experiments.Exp
module Registry = Fruitchain_experiments.Registry
module Runs = Fruitchain_experiments.Runs
module Pool = Fruitchain_util.Pool
module Metrics = Fruitchain_obs.Metrics
module Tracer = Fruitchain_obs.Tracer
module Scope = Fruitchain_obs.Scope
module Json = Fruitchain_obs.Json
module Analyze = Fruitchain_obs.Analyze
module Config = Fruitchain_sim.Config
module Engine = Fruitchain_sim.Engine
module Sparse = Fruitchain_sim.Sparse

let observe ~jobs (module E : Exp.EXPERIMENT) =
  Pool.set_default_jobs jobs;
  let tracer = Tracer.buffer () in
  Pool.set_scope (Scope.make ~metrics:(Metrics.create ()) ~tracer ());
  Fun.protect
    ~finally:(fun () -> Pool.set_scope Scope.null)
    (fun () -> ignore (E.run ~scale:Exp.Quick ()));
  Tracer.lines tracer

let count_ev name lines =
  List.length
    (List.filter
       (fun line ->
         match Json.of_string line with
         | Ok doc -> (
             match Option.bind (Json.member "ev" doc) Json.to_str with
             | Some ev -> String.equal ev name
             | None -> false)
         | Error _ -> false)
       lines)

let experiment id =
  match Registry.find id with
  | Some e -> e
  | None -> Alcotest.failf "experiment %s must be registered" id

let test_span_bearing_invariance id () =
  let (module E) = experiment id in
  let seq = observe ~jobs:1 (module E) in
  let par = observe ~jobs:4 (module E) in
  Alcotest.(check string)
    (id ^ ": span-bearing traces at --jobs 1 and --jobs 4 are byte-identical")
    (String.concat "\n" seq) (String.concat "\n" par);
  Alcotest.(check bool)
    (id ^ ": trace carries span.open events")
    true
    (count_ev "span.open" seq > 0);
  Alcotest.(check bool)
    (id ^ ": every opened span is closed")
    true
    (count_ev "span.close" seq >= count_ev "span.open" seq)

(* --- Exact vs sparse schema agreement --------------------------------- *)

let rounds = 3_000
let corrupt_at = 0 and uncorrupt_at = rounds - 1
let gossip_at = [ 0; rounds - 1 ]

let config ~engine =
  Config.make ~protocol:Config.Fruitchain ~engine ~n:12 ~rho:0.25 ~delta:2 ~rounds ~seed:5L
    ~corruption_schedule:[ (corrupt_at, 1) ]
    ~uncorruption_schedule:[ (uncorrupt_at, 1) ]
    ~gossip_schedule:(List.map (fun r -> (r, r = 0)) gossip_at)
    ~params:(Exp.default_params ~q:10.0 ~p:0.004 ())
    ()

let trace_lines ~engine =
  let tracer = Tracer.buffer () in
  let scope = Scope.make ~metrics:(Metrics.create ()) ~tracer () in
  (match engine with
  | Config.Exact ->
      ignore
        (Engine.run ~config:(config ~engine) ~strategy:Runs.honest_coalition ~scope ())
  | Config.Sparse -> ignore (Sparse.run ~config:(config ~engine) ~scope ()));
  Tracer.lines tracer

let docs lines = List.filter_map (fun l -> Result.to_option (Json.of_string l)) lines
let str doc key = Option.bind (Json.member key doc) Json.to_str

(* Selected key -> sorted field-key set, e.g. "span.close/fruit" ->
   ["ev"; "entity"; "id"; "mined"; ...]; each set must be uniform within
   one trace. *)
let schema select docs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun doc ->
      match (select doc, Json.to_obj doc) with
      | Some k, Some fields -> (
          let keys = List.sort String.compare (List.map fst fields) in
          match Hashtbl.find_opt tbl k with
          | None -> Hashtbl.replace tbl k keys
          | Some prior ->
              Alcotest.(check (list string))
                (k ^ " field keys are uniform within one trace") prior keys)
      | _ -> ())
    docs;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let span_key doc =
  match (str doc "ev", str doc "entity") with
  | Some (("span.open" | "span.close") as ev), Some entity -> Some (ev ^ "/" ^ entity)
  | _ -> None

(* The events the shared round driver emits for both planes. *)
let driver_events =
  [ "run.start"; "run.end"; "heights"; "net"; "corrupt"; "uncorrupt"; "scenario.gossip" ]

let driver_key doc =
  match str doc "ev" with Some ev when List.mem ev driver_events -> Some ev | _ -> None

let rounds_of ev docs =
  List.filter_map
    (fun doc ->
      if str doc "ev" = Some ev then Option.bind (Json.member "round" doc) Json.to_int
      else None)
    docs

let test_engine_schema_agreement () =
  let exact_docs = docs (trace_lines ~engine:Config.Exact) in
  let sparse_docs = docs (trace_lines ~engine:Config.Sparse) in
  let exact = schema span_key exact_docs and sparse = schema span_key sparse_docs in
  (* Reorg spans are a legitimate divergence: the sparse plane mines one
     converged canonical chain (DESIGN.md §14), so it can never emit one.
     Every combination BOTH planes emit must agree field-for-field. *)
  List.iter
    (fun (k, exact_keys) ->
      match List.assoc_opt k sparse with
      | None -> ()
      | Some sparse_keys ->
          Alcotest.(check (list string))
            (k ^ " schema agrees across planes") exact_keys sparse_keys)
    exact;
  List.iter
    (fun (k, _) ->
      Alcotest.(check bool) ("sparse " ^ k ^ " also exists on the exact plane") true
        (List.mem_assoc k exact))
    sparse;
  List.iter
    (fun entity ->
      List.iter
        (fun schema ->
          Alcotest.(check bool)
            (Printf.sprintf "both planes emit %s span closes" entity)
            true
            (List.mem_assoc ("span.close/" ^ entity) schema))
        [ exact; sparse ])
    [ "fruit"; "block" ];
  Alcotest.(check bool) "the sparse plane emits no reorg spans" false
    (List.mem_assoc "span.close/reorg" sparse);
  (* The driver's own events: every one on both planes, with the same
     fields, and the scheduled ones at exactly their schedule rounds. *)
  let exact = schema driver_key exact_docs and sparse = schema driver_key sparse_docs in
  List.iter
    (fun ev ->
      match (List.assoc_opt ev exact, List.assoc_opt ev sparse) with
      | Some e, Some s -> Alcotest.(check (list string)) (ev ^ " schema agrees across planes") e s
      | _ -> Alcotest.failf "%s must be emitted by both planes" ev)
    driver_events;
  List.iter
    (fun (plane, docs) ->
      List.iter
        (fun (ev, expected) ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s: %s at its schedule rounds" plane ev)
            expected (rounds_of ev docs))
        [ ("corrupt", [ corrupt_at ]); ("uncorrupt", [ uncorrupt_at ]);
          ("scenario.gossip", gossip_at) ])
    [ ("exact", exact_docs); ("sparse", sparse_docs) ]

(* --- Analyzer purity --------------------------------------------------- *)

let test_analyze_purity () =
  let lines = trace_lines ~engine:Config.Exact in
  let first = Analyze.summarize lines and second = Analyze.summarize lines in
  Alcotest.(check string) "summarize is a pure function of the lines"
    (Json.to_string first) (Json.to_string second);
  Alcotest.(check (list string)) "diff of a summary with itself is empty" []
    (Analyze.diff first second);
  Alcotest.(check string) "render derives from the summary deterministically"
    (Analyze.render first) (Analyze.render second)

let () =
  Alcotest.run "spans"
    [
      ( "jobs invariance of span-bearing traces",
        [
          Alcotest.test_case "E01" `Slow (test_span_bearing_invariance "E01");
          Alcotest.test_case "E19" `Slow (test_span_bearing_invariance "E19");
        ] );
      ( "engine schema agreement",
        [ Alcotest.test_case "exact == sparse" `Slow test_engine_schema_agreement ] );
      ( "analyzer purity",
        [ Alcotest.test_case "summarize/diff/render" `Quick test_analyze_purity ] );
    ]
