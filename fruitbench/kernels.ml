(* Micro-kernels: ns/op and minor words/op of single public functions,
   each fed with data taken from the workload's own run (its blocks,
   store, chain head, buffer contents and n). *)

module Config = Fruitchain_sim.Config
module Trace = Fruitchain_sim.Trace
module Params = Fruitchain_core.Params
module Extract = Fruitchain_core.Extract
module Buffer = Fruitchain_core.Buffer
module Window_view = Fruitchain_core.Window_view
module Types = Fruitchain_chain.Types
module Store = Fruitchain_chain.Store
module Codec = Fruitchain_chain.Codec
module Validate = Fruitchain_chain.Validate
module Hash = Fruitchain_crypto.Hash
module Oracle = Fruitchain_crypto.Oracle
module Sha256 = Fruitchain_crypto.Sha256
module Network = Fruitchain_net.Network
module Message = Fruitchain_net.Message
module Rng = Fruitchain_util.Rng
module Sampling = Fruitchain_util.Sampling
module Alias = Fruitchain_util.Alias
module Scope = Fruitchain_obs.Scope
module Flight = Fruitchain_obs.Flight
module Json = Fruitchain_obs.Json
module Analyze = Fruitchain_obs.Analyze

type measurement = { ns_per_op : float; words_per_op : float }

let batches = 7

(* [f] performs [ops] operations per call. Calls are grouped into
   batches of at least 2 ms; the result is the median batch's time per
   operation, and minor words per operation over all batches. *)
let measure ?(ops = 1) f =
  let k = ref 1 in
  let rec calibrate () =
    let t0 = Probe.now_ns () in
    for _ = 1 to !k do
      f ()
    done;
    if Probe.now_ns () - t0 < 2_000_000 && !k < 1 lsl 24 then begin
      k := !k * 2;
      calibrate ()
    end
  in
  calibrate ();
  let w0 = Gc.minor_words () in
  let times =
    Array.init batches (fun _ ->
        let t0 = Probe.now_ns () in
        for _ = 1 to !k do
          f ()
        done;
        Probe.now_ns () - t0)
  in
  let words = Gc.minor_words () -. w0 in
  Array.sort Int.compare times;
  let per = float_of_int (!k * ops) in
  {
    ns_per_op = float_of_int times.(batches / 2) /. per;
    words_per_op = words /. (per *. float_of_int batches);
  }

(* The chain block whose fruit count is the median among blocks that
   carry fruits (genesis when none does). *)
let typical_block chain =
  let with_fruits = List.filter (fun (b : Types.block) -> b.Types.fruits <> []) chain in
  match
    List.sort
      (fun (a : Types.block) (b : Types.block) ->
        Int.compare (List.length a.Types.fruits) (List.length b.Types.fruits))
      with_fruits
  with
  | [] -> Types.genesis
  | sorted -> List.nth sorted (List.length sorted / 2)

let take n l = List.filteri (fun i _ -> i < n) l

(* Every kernel, as (name of the ns/op metric, name of the words/op
   metric, divisor turning ns into the metric's unit, measurement). *)
let run ~trace ~trace_lines ~workdir =
  let config = Trace.config trace in
  let params = config.Config.params in
  let n = config.Config.n in
  let store = Trace.store trace in
  let chain = Trace.honest_final_chain trace in
  let head = List.nth chain (List.length chain - 1) in
  let head_id = Store.id store head.Types.b_hash in
  let block = typical_block chain in
  let fruit = match block.Types.fruits with f :: _ -> Some f | [] -> None in
  let oracle = Oracle.sim ~p:params.Params.p ~pf:params.Params.pf (Rng.of_seed 7L) in
  let rng = Rng.of_seed 11L in
  let window = Params.recency_window params in
  let height = Store.height_at store head_id in
  let opaque x = ignore (Sys.opaque_identity x) in
  let header = Codec.header_bytes block.Types.b_header in
  let bytes = Codec.block_bytes block in
  (* A fork tip: the latest mined block off the honest chain, if any. *)
  let on_chain = Hashtbl.create 1024 in
  List.iter (fun (b : Types.block) -> Hashtbl.replace on_chain (Hash.to_raw b.Types.b_hash) ()) chain;
  let fork = ref (Store.parent_id store head_id) in
  Trace.iter_events trace ~f:(fun (e : Trace.event) ->
      if e.Trace.kind = `Block && not (Hashtbl.mem on_chain (Hash.to_raw e.Trace.hash)) then
        match Store.find_id store e.Trace.hash with Some id -> fork := id | None -> ());
  (* The recency window's fruits: what a node's buffer holds near the head. *)
  let recent = List.rev (take (window + 1) (List.rev chain)) in
  let buffered = Extract.fruits_of_chain recent in
  let nbuf = max 1 (List.length buffered) in
  let view = Window_view.of_chain ~window ~store ~head:head.Types.b_hash in
  let prev_view =
    Window_view.of_chain ~window ~store ~head:(Store.hash_at store (Store.parent_id store head_id))
  in
  let filled = Buffer.create () in
  List.iter (Buffer.add filled ~view) buffered;
  let flip = ref false in
  let cache = Window_view.Cache.create ~window ~store in
  let heads =
    Array.of_list (List.map (fun (b : Types.block) -> b.Types.b_hash) (take 16 (List.rev chain)))
  in
  Array.iter (fun h -> opaque (Window_view.Cache.view cache ~head:h)) heads;
  let hi = ref 0 in
  let net = Network.create ~n ~delta:config.Config.delta () in
  let net_rng = Rng.of_seed 13L in
  let msg =
    match fruit with
    | Some f -> Message.fruit_announce ~sender:0 ~sent_at:0 f
    | None -> Message.chain_announce ~sender:0 ~sent_at:0 ~blocks:[ head ] ~head:head.Types.b_hash ()
  in
  let round = ref 0 in
  let alias = Alias.create (Array.make n 1.0) in
  let flight_scope =
    Scope.make ~flight:(Flight.create ~prefix:(Filename.concat workdir "kernel-flight-") ()) ()
  in
  let emitted = ref 0 in
  let lines = Array.of_list trace_lines in
  let nlines = max 1 (Array.length lines) in
  let kernels =
    [
      ( "sha256.digest_ns", "sha256.digest_words", 1.0,
        measure (fun () -> opaque (Sha256.digest header)) );
      ( "merkle.fruit_set_digest_us", "merkle.fruit_set_digest_words", 1e3,
        measure (fun () -> opaque (Validate.fruit_set_digest block.Types.fruits)) );
      ( "codec.block_encode_us", "codec.block_encode_words", 1e3,
        measure (fun () -> opaque (Codec.block_bytes block)) );
      ( "codec.block_decode_us", "codec.block_decode_words", 1e3,
        measure (fun () -> opaque (Codec.block_of_bytes bytes)) );
      ( "validate.valid_block_us", "validate.valid_block_words", 1e3,
        measure (fun () -> opaque (Validate.valid_block oracle block)) );
      ( "validate.valid_fruit_ns", "validate.valid_fruit_words", 1.0,
        measure (fun () ->
            match fruit with Some f -> opaque (Validate.valid_fruit oracle f) | None -> ()) );
      ( "store.ancestor_ns", "store.ancestor_words", 1.0,
        measure (fun () ->
            opaque
              (Store.ancestor_id_at_height store ~head:head_id
                 ~height:(max 0 (height - params.Params.kappa)))) );
      ( "store.common_prefix_ns", "store.common_prefix_words", 1.0,
        measure (fun () -> opaque (Store.common_prefix_height_id store head_id !fork)) );
      ( "buffer.add_ns", "buffer.add_words", 1.0,
        measure ~ops:nbuf (fun () ->
            let b = Buffer.create () in
            List.iter (Buffer.add b ~view) buffered) );
      ( "buffer.refresh_us", "buffer.refresh_words", 1e3,
        measure (fun () ->
            flip := not !flip;
            Buffer.refresh filled ~store ~view:(if !flip then view else prev_view)) );
      ( "window_view.cache_view_ns", "window_view.cache_view_words", 1.0,
        measure (fun () ->
            hi := (!hi + 1) land 15;
            opaque (Window_view.Cache.view cache ~head:heads.(!hi mod Array.length heads))) );
      ( "network.broadcast_drain_ns", "network.broadcast_drain_words", 1.0,
        measure ~ops:(max 1 (n - 1)) (fun () ->
            Network.broadcast net ~now:!round ~rng:net_rng msg;
            let at = !round + config.Config.delta in
            for r = 0 to n - 1 do
              opaque (Network.drain net ~round:at ~recipient:r)
            done;
            round := at) );
      ( "oracle.attempt_ns", "oracle.attempt_words", 1.0,
        measure (fun () -> opaque (Oracle.attempt oracle "")) );
      ( "sampling.binomial_pos_ns", "sampling.binomial_pos_words", 1.0,
        measure (fun () -> opaque (Sampling.binomial_pos rng n params.Params.p)) );
      ( "alias.sample_ns", "alias.sample_words", 1.0,
        measure (fun () -> opaque (Alias.sample alias rng)) );
      ( "scope.emit_ns", "scope.emit_words", 1.0,
        measure (fun () ->
            incr emitted;
            Scope.emit flight_scope "mint"
              [ ("round", Json.Int !emitted); ("party", Json.Int 3); ("kind", Json.Str "fruit") ]) );
      ( "analyze.ns_per_line", "analyze.words_per_line", 1.0,
        measure ~ops:nlines (fun () -> opaque (Analyze.summarize (Array.to_list lines))) );
    ]
  in
  List.concat_map
    (fun (ns_name, words_name, unit_div, m) ->
      let words = (words_name, m.words_per_op) in
      if ns_name = "analyze.ns_per_line" then
        [ ("analyze.lines_per_s", if m.ns_per_op > 0.0 then 1e9 /. m.ns_per_op else 0.0); words ]
      else [ (ns_name, m.ns_per_op /. unit_div); words ])
    kernels
