open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash
module Hset = Set.Make (Hash)
module Imap = Map.Make (Int)

type t = {
  enforce_recency : bool;
  fruits : (Hash.t, Types.fruit) Hashtbl.t;  (* everything retained *)
  candidate_set : (Hash.t, Types.fruit) Hashtbl.t;  (* recent ∧ not recorded *)
  by_pointer : (Hash.t, Hash.t list) Hashtbl.t;  (* hang point -> fruit refs *)
  (* Staleness index, kept only under the recency rule. A hang point in the
     current window needs no entry: it leaves the window through [advance]
     or [switch], which prune or file it then. Every other hang point is in
     [unresolved] until the store is consulted, then filed in [by_height]
     under its store height. A filed entry whose fruits are gone stays
     until the window's bottom passes its height. Both are persistent, so
     a fresh buffer allocates nothing for them. *)
  mutable unresolved : Hset.t;
  mutable by_height : Hash.t list Imap.t;
  (* Without the recency rule: blocks that left the window through
     [advance]. Their recorded fruits are includable again but have not
     been reclassified yet. *)
  mutable lapsed : Hash.t list;
  mutable sorted : Types.fruit list;  (* cache of [candidates] *)
  mutable dirty : bool;
}

let create ?(enforce_recency = true) () =
  {
    enforce_recency;
    fruits = Hashtbl.create 256;
    candidate_set = Hashtbl.create 64;
    by_pointer = Hashtbl.create 64;
    unresolved = Hset.empty;
    by_height = Imap.empty;
    lapsed = [];
    sorted = [];
    dirty = false;
  }

let size t = Hashtbl.length t.fruits
let mem t h = Hashtbl.mem t.fruits h

let uncandidate t h =
  if Hashtbl.mem t.candidate_set h then begin
    Hashtbl.remove t.candidate_set h;
    t.dirty <- true
  end

let classify t ~view (f : Types.fruit) =
  let eligible =
    ((not t.enforce_recency) || Window_view.is_recent view ~pointer:f.f_header.pointer)
    && not (Window_view.is_included view ~fruit:f.f_hash)
  in
  if eligible then begin
    if not (Hashtbl.mem t.candidate_set f.f_hash) then begin
      Hashtbl.replace t.candidate_set f.f_hash f;
      t.dirty <- true
    end
  end
  else uncandidate t f.f_hash

let add t ~view (f : Types.fruit) =
  if not (Hashtbl.mem t.fruits f.f_hash) then begin
    Hashtbl.replace t.fruits f.f_hash f;
    let pointer = f.f_header.pointer in
    (match Hashtbl.find_opt t.by_pointer pointer with
    | Some siblings -> Hashtbl.replace t.by_pointer pointer (f.f_hash :: siblings)
    | None ->
        Hashtbl.replace t.by_pointer pointer [ f.f_hash ];
        if t.enforce_recency && not (Window_view.is_recent view ~pointer) then
          t.unresolved <- Hset.add pointer t.unresolved);
    classify t ~view f
  end

let file t pointer ~height =
  t.by_height <-
    Imap.update height
      (fun peers -> Some (pointer :: Option.value ~default:[] peers))
      t.by_height

(* Forget every fruit hanging from [pointer]. *)
let release t pointer =
  match Hashtbl.find_opt t.by_pointer pointer with
  | None -> ()
  | Some refs ->
      List.iter
        (fun h ->
          Hashtbl.remove t.fruits h;
          uncandidate t h)
        refs;
      Hashtbl.remove t.by_pointer pointer;
      t.unresolved <- Hset.remove pointer t.unresolved

let drop t fruit_hash =
  match Hashtbl.find_opt t.fruits fruit_hash with
  | None -> ()
  | Some f -> (
      Hashtbl.remove t.fruits fruit_hash;
      uncandidate t fruit_hash;
      let pointer = f.f_header.pointer in
      let siblings = Option.value ~default:[] (Hashtbl.find_opt t.by_pointer pointer) in
      match List.filter (fun h -> not (Hash.equal h fruit_hash)) siblings with
      | [] ->
          Hashtbl.remove t.by_pointer pointer;
          t.unresolved <- Hset.remove pointer t.unresolved
      | siblings -> Hashtbl.replace t.by_pointer pointer siblings)

let refresh t ~store ~view =
  Hashtbl.reset t.candidate_set;
  t.dirty <- true;
  t.lapsed <- [];
  let stale = ref [] in
  Hashtbl.iter
    (fun h (f : Types.fruit) ->
      if t.enforce_recency && Window_view.stale_pointer ~store view ~pointer:f.f_header.pointer
      then stale := h :: !stale
      else classify t ~view f)
    t.fruits;
  List.iter (drop t) !stale;
  if t.enforce_recency then begin
    (* The view may be anywhere: re-file every surviving hang point. *)
    t.unresolved <- Hset.empty;
    t.by_height <- Imap.empty;
    Hashtbl.iter
      (fun pointer _ ->
        if not (Window_view.is_recent view ~pointer) then
          match Store.find_id store pointer with
          | Some i -> file t pointer ~height:(Store.height_at store i)
          | None -> t.unresolved <- Hset.add pointer t.unresolved)
      t.by_pointer
  end

let advance t ~view ~block =
  (* The chain grew by exactly [block] and the window slid accordingly; the
     candidate set changes only at the edges, no rescan needed. *)
  List.iter (fun (f : Types.fruit) -> uncandidate t f.f_hash) block.Types.fruits;
  (match Window_view.expired view with
  | None -> ()
  | Some old_block when t.enforce_recency ->
      (* Fruits hanging from the block that left the window are stale on
         this chain forever (heights only grow). *)
      release t old_block
  | Some old_block -> t.lapsed <- old_block :: t.lapsed);
  (* Buffered fruits hanging from the new head become recent now. *)
  t.unresolved <- Hset.remove block.Types.b_hash t.unresolved;
  let newly_recent =
    Option.value ~default:[] (Hashtbl.find_opt t.by_pointer block.Types.b_hash)
  in
  List.iter
    (fun h -> match Hashtbl.find_opt t.fruits h with Some f -> classify t ~view f | None -> ())
    newly_recent

(* Drop every fruit whose hang point is a stored block below [to_view]'s
   window, except those hanging from the window being left, which
   [switch]'s walk handles. Filed heights below the bottom are swept; hang
   points the store has learned of since they arrived are resolved, then
   dropped, left unindexed (in the new window) or filed. *)
let prune t ~store ~to_view =
  let bottom = Window_view.bottom to_view in
  let stale, at_bottom, above = Imap.split bottom t.by_height in
  t.by_height <-
    (match at_bottom with Some pointers -> Imap.add bottom pointers above | None -> above);
  Imap.iter (fun _ pointers -> List.iter (release t) pointers) stale;
  Hset.iter
    (fun pointer ->
      match Store.find_id store pointer with
      | None -> ()
      | Some i ->
          let height = Store.height_at store i in
          t.unresolved <- Hset.remove pointer t.unresolved;
          if height < bottom then release t pointer
          else if not (Window_view.is_recent to_view ~pointer) then file t pointer ~height)
    t.unresolved

(* Ids of the chain ending at [head] with heights in [lo, hi]. *)
let iter_heights store ~head ~lo ~hi f =
  if lo <= hi then
    match Store.ancestor_id_at_height store ~head ~height:hi with
    | None -> ()
    | Some top ->
        let rec go i =
          f i;
          if Store.height_at store i > lo then go (Store.parent_id store i)
        in
        go top

(* The symmetric difference of the two windows: [left] gets the blocks
   only in [from_view]'s (the abandoned branch, and the blocks that slid
   out at the bottom), [entered] the blocks only in [to_view]'s. Below the
   fork the chains agree, so there the windows differ only between their
   bottoms. *)
let iter_window_diff store ~from_id ~from_view ~to_id ~to_view ~left ~entered =
  let fork = Store.common_prefix_height_id store from_id to_id in
  let lo_from = Window_view.bottom from_view and lo_to = Window_view.bottom to_view in
  iter_heights store ~head:from_id ~lo:(max lo_from (fork + 1))
    ~hi:(Window_view.height from_view) left;
  iter_heights store ~head:to_id ~lo:(max lo_to (fork + 1)) ~hi:(Window_view.height to_view)
    entered;
  if lo_from < lo_to then
    iter_heights store ~head:from_id ~lo:lo_from ~hi:(min (lo_to - 1) fork) left
  else if lo_to < lo_from then
    iter_heights store ~head:to_id ~lo:lo_to ~hi:(min (lo_from - 1) fork) entered

let switch t ~store ~from_view ~to_view =
  match
    ( Store.find_id store (Window_view.head from_view),
      Store.find_id store (Window_view.head to_view) )
  with
  | Some from_id, Some to_id ->
      if t.enforce_recency then prune t ~store ~to_view;
      (* A fruit's class depends only on whether its pointer is in the
         window and whether a window block records it, so only fruits
         hanging from or recorded in a block that entered or left the
         window can change class. *)
      let reclassify h =
        match Hashtbl.find_opt t.fruits h with
        | Some f -> classify t ~view:to_view f
        | None -> ()
      in
      let touch (block : Types.block) =
        List.iter reclassify
          (Option.value ~default:[] (Hashtbl.find_opt t.by_pointer block.b_hash));
        List.iter (fun (f : Types.fruit) -> reclassify f.f_hash) block.fruits
      in
      let bottom = Window_view.bottom to_view in
      let left i =
        let block = Store.block_at store i in
        (* Unindexed while in the window: prune it or file it now. *)
        (if t.enforce_recency && Hashtbl.mem t.by_pointer block.b_hash then
           let height = Store.height_at store i in
           if height < bottom then release t block.b_hash else file t block.b_hash ~height);
        touch block
      in
      let entered i = touch (Store.block_at store i) in
      iter_window_diff store ~from_id ~from_view ~to_id ~to_view ~left ~entered;
      List.iter
        (fun h -> match Store.find store h with Some block -> touch block | None -> ())
        t.lapsed;
      t.lapsed <- []
  | _ -> refresh t ~store ~view:to_view

let candidates t =
  if t.dirty then begin
    let all = Hashtbl.fold (fun _ f acc -> f :: acc) t.candidate_set [] in
    t.sorted <- List.sort (fun (a : Types.fruit) b -> Hash.compare a.f_hash b.f_hash) all;
    t.dirty <- false
  end;
  t.sorted

let candidate_count t = Hashtbl.length t.candidate_set
