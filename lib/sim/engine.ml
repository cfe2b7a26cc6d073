open Fruitchain_chain
module Rng = Fruitchain_util.Rng
module Oracle = Fruitchain_crypto.Oracle
module Network = Fruitchain_net.Network
module Message = Fruitchain_net.Message
module Params = Fruitchain_core.Params
module Window_view = Fruitchain_core.Window_view
module Fruit_node = Fruitchain_core.Node
module Nak_node = Fruitchain_nakamoto.Node
module Scope = Fruitchain_obs.Scope
module Metrics = Fruitchain_obs.Metrics
module Json = Fruitchain_obs.Json

type workload = Strategy.workload

type party = Nak of Nak_node.t | Fruit of Fruit_node.t | Corrupt

(* Heads are threaded as arena ids: the per-round watchers compare, walk,
   and measure heads without ever re-resolving a hash. Hashes are
   materialized only where they become externally visible (trace head
   snapshots). *)
let head_of = function
  | Nak node -> Some (Nak_node.head_id node)
  | Fruit node -> Some (Fruit_node.head_id node)
  | Corrupt -> None

let events_of_messages ~round ~miner msgs =
  List.filter_map
    (fun (m : Message.t) ->
      if m.Message.relay then None
      else
      match m.payload with
      | Message.Fruit_announce f ->
          Some { Trace.round; miner; honest = true; kind = `Fruit; hash = f.Types.f_hash }
      | Message.Chain_announce { blocks = [ b ]; _ } ->
          Some { Trace.round; miner; honest = true; kind = `Block; hash = b.Types.b_hash }
      | Message.Chain_announce _ -> None)
    msgs

(* Reorg depths: a switch of depth d means the party abandoned the last d
   blocks of its previous chain. Depth 1 (sibling tip) dominates under
   honest churn; the tail is what the common-prefix property bounds. *)
let reorg_buckets = [| 1; 2; 3; 4; 6; 8; 12; 16; 24; 32 |]

(* Per-round head watch, active only when a scope is attached: classifies
   every head change as an extension (new head has the old head as
   ancestor) or a switch, and records switch depths. Extensions walk
   [new height - old height] parent links; switches additionally walk to
   the fork point — both proportional to the change, not to the chain. *)
let watch_heads ~scope ~lifecycle ~store ~round ~parties ~prev_head ~prev_height
    ~prev_change =
  Array.iteri
    (fun i p ->
      match head_of p with
      | None -> ()
      | Some h ->
          if not (Store.id_equal h prev_head.(i)) then begin
            let height = Store.height_at store h in
            let extends =
              match Store.ancestor_id_at_height store ~head:h ~height:prev_height.(i) with
              | Some a -> Store.id_equal a prev_head.(i)
              | None -> false
            in
            if extends then Scope.incr scope "sim.head_extends"
            else begin
              let fork = Store.common_prefix_height_id store h prev_head.(i) in
              let depth = prev_height.(i) - fork in
              Scope.incr scope "sim.head_switches";
              (match Scope.metrics scope with
              | None -> ()
              | Some m ->
                  Metrics.observe
                    (Metrics.histogram m ~buckets:reorg_buckets "sim.reorg_depth")
                    depth);
              (match lifecycle with
              | Some lc ->
                  Lifecycle.reorg lc ~party:i ~round ~depth
                    ~duration:(round - prev_change.(i))
              | None -> ());
              if Scope.tracing scope then
                Scope.emit scope "reorg"
                  [
                    ("round", Json.Int round);
                    ("party", Json.Int i);
                    ("depth", Json.Int depth);
                    ("height", Json.Int height);
                  ]
            end;
            (match lifecycle with
            | Some lc -> Lifecycle.adopted lc ~round (Store.hash_at store h)
            | None -> ());
            prev_head.(i) <- h;
            prev_height.(i) <- height;
            prev_change.(i) <- round
          end)
    parties

let run_with_oracle ~config ~strategy ~oracle ?workload ?net_policy ?round_hook ?scope () =
  Rounds.run ~config ?workload ?net_policy ?round_hook ?scope
  @@ fun { Rounds.scope; store; network; trace; lifecycle; workload; record; _ } ->
  let n = config.Config.n in
  let master = Rng.of_seed config.Config.seed in
  let window = Params.recency_window config.Config.params in
  let views = Window_view.Cache.create ~window ~store in
  let net_rng = Rng.split master in
  (* Current relay setting: gossip toggles flip it for every live fruit
     node, and nodes respawned by uncorruption inherit it. *)
  let gossip_now = ref config.Config.gossip in
  let spawn id =
    let rng = Rng.split master in
    match config.Config.protocol with
    | Config.Nakamoto -> Nak (Nak_node.create ~id ~store ~rng)
    | Config.Fruitchain ->
        Fruit
          (Fruit_node.create ~gossip:!gossip_now ~id ~params:config.Config.params ~store
             ~views ~rng ())
  in
  let parties = Array.init n (fun i -> if Config.is_corrupt config i then Corrupt else spawn i) in
  let ctx =
    { Strategy.config; store; views; oracle; network; rng = Rng.split master; trace; workload }
  in
  let strat = Strategy.instantiate strategy ctx in
  let observing = Scope.enabled scope in
  let prev_head = Array.make n Store.genesis_id in
  let prev_height = Array.make n 0 in
  let prev_change = Array.make n 0 in
  let step round =
    let broadcasts = ref [] in
    let publish i out =
      List.iter (Trace.record_event trace) (events_of_messages ~round ~miner:i out);
      (match lifecycle with Some lc -> Lifecycle.on_outgoing lc out | None -> ());
      List.iter
        (fun msg ->
          broadcasts := msg :: !broadcasts;
          Network.broadcast network ~now:round
            ~schedule:(fun ~recipient -> Strategy.schedule_honest strat msg ~recipient)
            ~rng:net_rng msg)
        out
    in
    for i = 0 to n - 1 do
      let incoming = Network.drain network ~round ~recipient:i in
      (match lifecycle with Some lc -> Lifecycle.on_incoming lc ~round incoming | None -> ());
      match parties.(i) with
      | Corrupt -> () (* the adversary observes everything at send time *)
      | Nak node ->
          publish i (Nak_node.step node oracle ~round ~record:(record ~round ~party:i) ~incoming)
      | Fruit node ->
          publish i
            (Fruit_node.step node oracle ~round ~record:(record ~round ~party:i) ~incoming)
    done;
    Strategy.act strat ~round ~honest_broadcasts:(List.rev !broadcasts);
    if observing then
      watch_heads ~scope ~lifecycle ~store ~round ~parties ~prev_head ~prev_height
        ~prev_change
  in
  {
    Rounds.engine = "exact";
    oracle;
    step;
    next = (fun r -> r + 1);
    head = (fun ~round:_ i -> head_of parties.(i));
    (* Adaptive corruption: Z hands the party to A; the node stops acting
       (its state is the adversary's to use) and its query moves into the
       adversary's budget (Strategy.q_at). *)
    corrupt = (fun i -> parties.(i) <- Corrupt);
    (* Uncorruption: the released party re-spawns as a freshly initialized
       honest node (the paper treats it exactly like a new player). *)
    uncorrupt = (fun i -> parties.(i) <- spawn i);
    gossip =
      (fun on ->
        gossip_now := on;
        Array.iter
          (function Fruit node -> Fruit_node.set_gossip node on | Nak _ | Corrupt -> ())
          parties);
    harvest = ignore;
  }

let run ~config ~strategy ?workload ?net_policy ?round_hook ?scope () =
  match config.Config.engine with
  | Config.Sparse ->
      (* The sparse plane has no per-party nodes to strategize against:
         every party mines the converged chain (the honest-coalition
         behaviour). The strategy module is accepted for interface parity
         and ignored; see Sparse.run and DESIGN.md §14. *)
      let (module _ : Strategy.S) = strategy in
      Sparse.run ~config ?workload ?net_policy ?round_hook ?scope ()
  | Config.Exact ->
      let seed_rng = Rng.of_seed (Int64.logxor config.Config.seed 0x5DEECE66DL) in
      let oracle =
        Oracle.sim
          ~p:config.Config.params.Params.p
          ~pf:config.Config.params.Params.pf
          (Rng.split seed_rng)
      in
      run_with_oracle ~config ~strategy ~oracle ?workload ?net_policy ?round_hook ?scope ()
