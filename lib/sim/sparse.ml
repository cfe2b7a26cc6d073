open Fruitchain_chain
module Rng = Fruitchain_util.Rng
module Alias = Fruitchain_util.Alias
module Sampling = Fruitchain_util.Sampling
module Oracle = Fruitchain_crypto.Oracle
module Network = Fruitchain_net.Network
module Params = Fruitchain_core.Params
module Scope = Fruitchain_obs.Scope
module Metrics = Fruitchain_obs.Metrics

(* Stream indices under the config seed: each concern owns a derived
   stream, so the draw count of one (e.g. a round's win count) never shifts
   another (e.g. who won). *)
let scheduler_stream = 0
let attribution_stream = 1
let forge_stream = 2
let oracle_stream = 3

type pending_fruit = { ready : int; fruit : Types.fruit }

(* 1 - (1-p)^q without cancellation: the probability that a round with [q]
   total queries contains at least one win. *)
let round_win_prob ~budget ~p =
  if p >= 1.0 then 1.0
  else if p <= 0.0 || budget <= 0 then 0.0
  else -.Float.expm1 (float_of_int budget *. Float.log1p (-.p))

let run ~config ?workload ?net_policy ?round_hook ?(max_skip = max_int) ?scope () =
  if max_skip < 1 then invalid_arg "Sparse.run: max_skip must be >= 1";
  Rounds.run ~config ?workload ?net_policy ?round_hook ?scope
  @@ fun { Rounds.store; network; trace; lifecycle; record; _ } ->
  let n = config.Config.n in
  let rounds = config.Config.rounds in
  let params = config.Config.params in
  let p = params.Params.p and pf = params.Params.pf in
  let fruiting =
    match config.Config.protocol with Config.Fruitchain -> true | Config.Nakamoto -> false
  in
  let sched_rng = Rng.of_seed (Rng.derive config.Config.seed ~index:scheduler_stream) in
  let attr_rng = Rng.of_seed (Rng.derive config.Config.seed ~index:attribution_stream) in
  let forge_rng = Rng.of_seed (Rng.derive config.Config.seed ~index:forge_stream) in
  let oracle = Oracle.sim ~p ~pf (Rng.of_seed (Rng.derive config.Config.seed ~index:oracle_stream)) in
  (* Every party spends its one query in every round, visited or not: the
     effective attempts are charged once, never per RNG draw. *)
  Oracle.charge oracle (n * rounds);
  (* One query per party per round (the paper's model): uniform weights,
     so the table is built once for the whole run. *)
  let table = Alias.create (Array.make n 1.0) in
  let pb = round_win_prob ~budget:n ~p in
  let pfr = if fruiting then round_win_prob ~budget:n ~p:pf else 0.0 in
  (* Next round containing at least one win of each kind. [from + g] with a
     geometric number of empty rounds g — drawing the gap instead of a
     Bernoulli per round is the whole event-driven trick. *)
  let next_win from prob =
    if prob <= 0.0 || from >= rounds then max_int
    else
      let g = Sampling.geometric sched_rng prob in
      if from > max_int - g then max_int else from + g
  in
  let next_b = ref (next_win 0 pb) in
  let next_f = ref (if fruiting then next_win 0 pfr else max_int) in
  let head_id = ref Store.genesis_id in
  let pending = Queue.create () in
  let visited = ref 0 in
  let depth = Params.pointer_depth params in
  let head_hash () = Store.hash_at store !head_id in
  let pointer_hash () =
    let height = Store.height_at store !head_id in
    match
      Store.ancestor_id_at_height store ~head:!head_id ~height:(max 0 (height - depth))
    with
    | Some id -> Store.hash_at store id
    | None -> Types.genesis.b_hash
  in
  let rec take_ready round acc =
    if (not (Queue.is_empty pending)) && (Queue.peek pending).ready <= round then
      take_ready round ((Queue.pop pending).fruit :: acc)
    else List.rev acc
  in
  let mine_block ~round ~parent ~pointer ~sibling =
    let winner = Alias.sample table attr_rng in
    let honest = not (Config.is_corrupt_at config ~round winner) in
    let record = record ~round ~party:winner in
    Rng.draw forge_rng;
    let nonce = Rng.last_bits64 forge_rng in
    let hash = Oracle.sample_win oracle ~block:true ~fruit:false forge_rng in
    (* Only the first winner of a round extends the canonical chain; later
       same-round winners are stored as siblings — the deterministic image
       of the exact plane's fork-then-resolve, where exactly one of the
       simultaneous blocks survives. Ready fruits go to the survivor. *)
    let fruits = if sibling then [] else take_ready round [] in
    let digest = Validate.fruit_set_digest fruits in
    let header = { Types.parent; pointer; nonce; digest; record } in
    let block =
      {
        Types.b_header = header;
        b_hash = hash;
        fruits;
        b_prov = Some { Types.miner = winner; round; honest };
      }
    in
    let id = Store.add_id store block in
    if not sibling then head_id := id;
    Trace.record_event trace { Trace.round; miner = winner; honest; kind = `Block; hash };
    (match lifecycle with
    | Some lc ->
        Lifecycle.block_mined lc ~height:(Store.height_at store id)
          ~adopted:(if sibling then None else Some round)
          ~delivered:(round + config.Config.delta) ~recipients:(n - 1) block
    | None -> ());
    Network.deliver_batch network ~count:(n - 1) ~delay:config.Config.delta
  in
  let mine_fruit ~round =
    let parent = head_hash () in
    let pointer = pointer_hash () in
    let winner = Alias.sample table attr_rng in
    let honest = not (Config.is_corrupt_at config ~round winner) in
    let record = record ~round ~party:winner in
    Rng.draw forge_rng;
    let nonce = Rng.last_bits64 forge_rng in
    let hash = Oracle.sample_win oracle ~block:false ~fruit:true forge_rng in
    let digest = Validate.fruit_set_digest [] in
    let header = { Types.parent; pointer; nonce; digest; record } in
    let fruit =
      {
        Types.f_header = header;
        f_hash = hash;
        f_prov = Some { Types.miner = winner; round; honest };
      }
    in
    Queue.add { ready = round + config.Config.delta; fruit } pending;
    Trace.record_event trace { Trace.round; miner = winner; honest; kind = `Fruit; hash };
    (match lifecycle with
    | Some lc -> Lifecycle.fruit_mined lc ~gossiped:(round + config.Config.delta) fruit
    | None -> ());
    Network.deliver_batch network ~count:(n - 1) ~delay:config.Config.delta
  in
  let step round =
    incr visited;
    if round = !next_b then begin
      let count = Sampling.binomial_pos sched_rng n p in
      next_b := next_win (round + 1) pb;
      let parent = head_hash () in
      let pointer = pointer_hash () in
      for k = 0 to count - 1 do
        mine_block ~round ~parent ~pointer ~sibling:(k > 0)
      done
    end;
    if fruiting && round = !next_f then begin
      let count = Sampling.binomial_pos sched_rng n pf in
      next_f := next_win (round + 1) pfr;
      for _ = 1 to count do
        mine_fruit ~round
      done
    end
  in
  {
    Rounds.engine = "sparse";
    oracle;
    step;
    (* Rounds between wins consume no randomness and change no state, which
       is why skipping them is sound (and why a [max_skip = 1] run is
       byte-identical; the suite checks this). *)
    next =
      (fun r ->
        let skip = if r <= max_int - max_skip then r + max_skip else max_int in
        Int.min skip (Int.min !next_b !next_f));
    (* Every honest party holds the one converged chain. *)
    head =
      (fun ~round i ->
        if Config.is_corrupt_at config ~round i then None else Some !head_id);
    (* Corruption is read from the config at each win and snapshot; relaying
       does not exist here (the chain is already converged), so the toggles
       survive only as the driver's trace events, for scenario parity. *)
    corrupt = ignore;
    uncorrupt = ignore;
    gossip = ignore;
    harvest =
      (fun m -> Metrics.incr ~by:!visited (Metrics.counter m "sim.rounds_visited"));
  }
