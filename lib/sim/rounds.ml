open Fruitchain_chain
module Pool = Fruitchain_util.Pool
module Oracle = Fruitchain_crypto.Oracle
module Network = Fruitchain_net.Network
module Params = Fruitchain_core.Params
module Scope = Fruitchain_obs.Scope
module Metrics = Fruitchain_obs.Metrics
module Json = Fruitchain_obs.Json

type env = {
  scope : Scope.t;
  store : Store.t;
  network : Network.t;
  trace : Trace.t;
  lifecycle : Lifecycle.t option;
  workload : Strategy.workload;
  record : round:int -> party:int -> string;
}

type plane = {
  engine : string;
  oracle : Oracle.t;
  step : int -> unit;
  next : int -> int;
  head : round:int -> int -> Store.id option;
  corrupt : int -> unit;
  uncorrupt : int -> unit;
  gossip : bool -> unit;
  harvest : Metrics.t -> unit;
}

(* Schedules are sorted (Config.make), and every scheduled round is
   visited, so a cursor fires exactly the entries of the current round. *)
let rec fire cursor ~round f =
  match !cursor with
  | (r, x) :: rest when r <= round ->
      cursor := rest;
      f ~round x;
      fire cursor ~round f
  | _ -> ()

let peek cursor = match !cursor with (r, _) :: _ -> r | [] -> max_int

(* End-of-run harvest: the hot paths (oracle queries, message delivery)
   keep native int counters; this folds them into the scope's registry
   exactly once, so instrumentation costs O(1) per run there. *)
let harvest m ~config ~trace ~network ~oracle ~final_height =
  let add name by = Metrics.incr ~by (Metrics.counter m name) in
  add "sim.runs" 1;
  add "sim.rounds" config.Config.rounds;
  add "sim.probes" (Trace.probe_count trace);
  add "oracle.queries" (Oracle.queries oracle);
  add "oracle.wins.block" (Oracle.block_wins oracle);
  add "oracle.wins.fruit" (Oracle.fruit_wins oracle);
  add "net.sent" (Network.sent network);
  add "net.delivered" (Network.delivered network);
  let fh = ref 0 and fa = ref 0 and bh = ref 0 and ba = ref 0 in
  Trace.iter_events trace ~f:(fun (e : Trace.event) ->
      match (e.kind, e.honest) with
      | `Fruit, true -> incr fh
      | `Fruit, false -> incr fa
      | `Block, true -> incr bh
      | `Block, false -> incr ba);
  add "sim.mint.fruit.honest" !fh;
  add "sim.mint.fruit.adversary" !fa;
  add "sim.mint.block.honest" !bh;
  add "sim.mint.block.adversary" !ba;
  Metrics.set (Metrics.gauge m "sim.final_height") (float_of_int final_height)

let run ~config ?(workload = fun ~round:_ ~party:_ -> "") ?net_policy ?round_hook ?scope make =
  let scope = match scope with Some s -> s | None -> Pool.current_scope () in
  let n = config.Config.n and rounds = config.Config.rounds in
  let store = Store.create () in
  let network = Network.create ~scope ?policy:net_policy ~n ~delta:config.Config.delta () in
  let trace = Trace.create ~scope ~config ~store () in
  let lifecycle = Lifecycle.create ~scope ~store ~config () in
  (* Liveness probes model a submitted transaction: from its injection round
     until the next probe replaces it, every honest party keeps offering the
     probe record to its mining attempts (the mempool behaviour the liveness
     definition quantifies over — the record is input to honest players from
     round r' on). Explicit workload records take precedence. *)
  let active_probe = ref "" in
  let record ~round ~party =
    let base = workload ~round ~party in
    if String.length base = 0 then !active_probe else base
  in
  let plane = make { scope; store; network; trace; lifecycle; workload; record } in
  let tracing = Scope.tracing scope in
  let emit name fields = if tracing then Scope.emit scope name fields in
  let params = config.Config.params in
  emit "run.start"
    [
      ("protocol",
       Json.Str
         (match config.Config.protocol with
          | Config.Nakamoto -> "nakamoto"
          | Config.Fruitchain -> "fruitchain"));
      ("engine", Json.Str plane.engine);
      ("n", Json.Int n);
      ("rounds", Json.Int rounds);
      ("delta", Json.Int config.Config.delta);
      ("kappa", Json.Int params.Params.kappa);
      ("recency", Json.Int (Params.recency_window params));
      ("seed", Json.Str (Int64.to_string config.Config.seed));
    ];
  let gossip = ref config.Config.gossip_schedule in
  let corr = ref config.Config.corruption_schedule in
  let uncorr = ref config.Config.uncorruption_schedule in
  let every k round = k > 0 && round mod k = 0 in
  let per_party round f none =
    Array.init n (fun i -> match plane.head ~round i with Some h -> f h | None -> none)
  in
  let hashes round = per_party round (Store.hash_at store) Types.genesis.b_hash in
  (* A due schedule entry: the plane's callback, then the trace event. *)
  let due ev key json apply ~round x =
    apply x;
    emit ev [ ("round", Json.Int round); (key, json x) ]
  in
  let on_gossip = due "scenario.gossip" "on" (fun on -> Json.Bool on) plane.gossip
  and on_corrupt = due "corrupt" "party" (fun i -> Json.Int i) plane.corrupt
  and on_uncorrupt = due "uncorrupt" "party" (fun i -> Json.Int i) plane.uncorrupt in
  let visit round =
    (* Scenario driver hook (fruitstorm): applied before anything else so
       fault windows opening at [round] already govern it. *)
    (match round_hook with None -> () | Some hook -> hook ~scope ~round);
    fire gossip ~round on_gossip;
    fire corr ~round on_corrupt;
    fire uncorr ~round on_uncorrupt;
    if every config.Config.probe_interval round then begin
      let probe = Printf.sprintf "probe/%d" round in
      Trace.record_probe trace ~record:probe ~round;
      active_probe := probe
    end;
    plane.step round;
    if every config.Config.snapshot_interval round then begin
      let heights = per_party round (Store.height_at store) (-1) in
      Trace.record_heights trace ~round heights;
      if tracing then begin
        let mn = ref max_int and mx = ref (-1) in
        Array.iter (fun h -> if h >= 0 then (mn := Int.min !mn h; mx := Int.max !mx h)) heights;
        if !mx >= 0 then
          emit "heights"
            [ ("round", Json.Int round); ("min", Json.Int !mn); ("max", Json.Int !mx) ];
        emit "net"
          [
            ("round", Json.Int round);
            ("sent", Json.Int (Network.sent network));
            ("delivered", Json.Int (Network.delivered network));
            ("pending", Json.Int (Network.pending network));
          ]
      end
    end;
    if every config.Config.head_snapshot_interval round then
      Trace.record_heads trace ~round (hashes round)
  in
  (* The next round worth visiting: rounds before it hold no plane work, no
     schedule entry, no probe and no snapshot, so skipping them changes
     nothing. *)
  let next_multiple r k = ((r / k) + 1) * k in
  let next_visit r =
    let v = ref (plane.next r) in
    let consider x = if x < !v then v := x in
    if Option.is_some round_hook then consider (r + 1);
    consider (next_multiple r config.Config.snapshot_interval);
    consider (next_multiple r config.Config.head_snapshot_interval);
    if config.Config.probe_interval > 0 then
      consider (next_multiple r config.Config.probe_interval);
    consider (peek gossip);
    consider (peek corr);
    consider (peek uncorr);
    !v
  in
  let r = ref 0 in
  while !r < rounds do
    visit !r;
    r := next_visit !r
  done;
  let final_heads = hashes (rounds - 1) in
  Trace.set_final_heads trace final_heads;
  Trace.set_oracle_queries trace (Oracle.queries plane.oracle);
  if Scope.enabled scope then begin
    let final_height =
      match Trace.honest_parties trace with [] -> -1 | i :: _ -> Store.height store final_heads.(i)
    in
    (match Scope.metrics scope with
    | None -> ()
    | Some m ->
        harvest m ~config ~trace ~network ~oracle:plane.oracle ~final_height;
        plane.harvest m);
    (match lifecycle with Some lc -> Lifecycle.finalize lc ~trace | None -> ());
    emit "run.end"
      [
        ("rounds", Json.Int rounds);
        ("final_height", Json.Int final_height);
        ("events", Json.Int (Trace.event_count trace));
        ("queries", Json.Int (Oracle.queries plane.oracle));
      ]
  end;
  trace
