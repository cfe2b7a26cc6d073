(* Clocks, duration histograms and the per-round recorder the traced run
   attaches through the engine's public hooks ([?round_hook], [?workload]
   and a wrapped [Strategy.S]). Recording is allocation-free: stamps go
   into preallocated int arrays, so tracing adds no minor-heap work to
   the run it measures. *)

module Strategy = Fruitchain_sim.Strategy

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

(* Log-linear histogram of non-negative integers (nanoseconds): exact
   below 16, then 16 sub-buckets per power of two (≤ 6.25% relative
   bucket width). *)
module Hist = struct
  type t = { counts : int array; mutable total : int }

  let create () = { counts = Array.make (64 * 16) 0; total = 0 }

  let rec bits v = if v = 0 then 0 else 1 + bits (v lsr 1)

  let index v =
    if v < 16 then max 0 v
    else
      let e = bits v - 1 in
      (e * 16) + ((v lsr (e - 4)) land 15)

  (* Midpoint of the bucket's value range. *)
  let value i =
    if i < 64 then float_of_int i
    else
      let e = i / 16 and m = i mod 16 in
      let lo = (16 + m) lsl (e - 4) in
      float_of_int lo +. (float_of_int (1 lsl (e - 4)) /. 2.0)

  let add t v =
    let i = index v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let merge ~into t =
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
    into.total <- into.total + t.total

  (* Nearest-rank quantile, [q] in (0, 1]; 0 when empty. *)
  let quantile t q =
    if t.total = 0 then 0.0
    else begin
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.total))) in
      let acc = ref 0 and found = ref (-1) in
      Array.iteri
        (fun i c ->
          if !found < 0 then begin
            acc := !acc + c;
            if !acc >= rank then found := i
          end)
        t.counts;
      value !found
    end
end

(* One engine call's per-round stamps. Round [r]'s phases are
   honest = [hook.(r), act0.(r)], act = [act0.(r), act1.(r)] and
   observe = [act1.(r), hook.(r+1)]; the last round's observation runs to
   the engine's return and is accounted as the finish phase. *)
type rounds = {
  hook : int array;
  act0 : int array;
  act1 : int array;
  mutable last_callback : int;  (** 0: no party-round open. *)
  segments : Hist.t;  (** Honest party-rounds, ns. *)
  mutable schedule_calls : int;
}

let create_rounds n =
  {
    hook = Array.make n 0;
    act0 = Array.make n 0;
    act1 = Array.make n 0;
    last_callback = 0;
    segments = Hist.create ();
    schedule_calls = 0;
  }

(* The recorder of the engine call in progress. Traced runs are
   sequential on one domain, so a single slot suffices; the wrapped
   strategy module reads it because a first-class module cannot close
   over a run-time value. *)
let current : rounds option ref = ref None

let on_round r ~round =
  let t = now_ns () in
  r.hook.(round) <- t;
  r.last_callback <- 0

(* The engine calls the workload once per honest party per round, right
   after that party's inbox drain: consecutive callbacks bracket one
   party-round (step + broadcast + the next party's drain). *)
let on_callback r =
  let t = now_ns () in
  if r.last_callback > 0 then Hist.add r.segments (t - r.last_callback);
  r.last_callback <- t

module Timed (S : Strategy.S) : Strategy.S = struct
  type t = S.t

  let name = S.name
  let create = S.create

  let schedule_honest t msg ~recipient =
    (match !current with
    | Some r -> r.schedule_calls <- r.schedule_calls + 1
    | None -> ());
    S.schedule_honest t msg ~recipient

  let act t ~round ~honest_broadcasts =
    match !current with
    | None -> S.act t ~round ~honest_broadcasts
    | Some r ->
        let t0 = now_ns () in
        if r.last_callback > 0 then Hist.add r.segments (t0 - r.last_callback);
        r.last_callback <- 0;
        r.act0.(round) <- t0;
        S.act t ~round ~honest_broadcasts;
        r.act1.(round) <- now_ns ()
end

let timed (module S : Strategy.S) : (module Strategy.S) = (module Timed (S))

(* Spans: name, start, end, parent (index into the same list, -1 for a
   root). Kept in memory and written when the benchmark ends. *)
type span = { name : string; start : int; stop : int; parent : int }

type spans = { mutable items : span array; mutable len : int }

let spans () = { items = [||]; len = 0 }

let add_span s ~name ~start ~stop ~parent =
  if s.len = Array.length s.items then begin
    let bigger = Array.make (max 64 (2 * s.len)) { name = ""; start = 0; stop = 0; parent = -1 } in
    Array.blit s.items 0 bigger 0 s.len;
    s.items <- bigger
  end;
  s.items.(s.len) <- { name; start; stop; parent };
  s.len <- s.len + 1;
  s.len - 1

(* Self time per span name: each span's duration minus the part of it
   its children cover (children never overlap within one parent here). *)
let self_times s =
  let child = Array.make s.len 0 in
  for i = 0 to s.len - 1 do
    let sp = s.items.(i) in
    if sp.parent >= 0 then child.(sp.parent) <- child.(sp.parent) + (sp.stop - sp.start)
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to s.len - 1 do
    let sp = s.items.(i) in
    let self = sp.stop - sp.start - child.(i) in
    let prev = Option.value ~default:0 (Hashtbl.find_opt tbl sp.name) in
    Hashtbl.replace tbl sp.name (prev + self)
  done;
  fun name -> secs (Option.value ~default:0 (Hashtbl.find_opt tbl name))

(* The per-round phase spans of one engine call, under [parent].
   [engine_start] opens the in-engine construction span (to the first
   round hook); [engine_stop] closes the finish span. *)
let add_round_spans s r ~parent ~engine_start ~engine_stop =
  let n = Array.length r.hook in
  ignore (add_span s ~name:"engine.setup" ~start:engine_start ~stop:r.hook.(0) ~parent);
  for i = 0 to n - 1 do
    ignore (add_span s ~name:"engine.honest" ~start:r.hook.(i) ~stop:r.act0.(i) ~parent);
    ignore (add_span s ~name:"strategy.act" ~start:r.act0.(i) ~stop:r.act1.(i) ~parent);
    if i + 1 < n then
      ignore (add_span s ~name:"engine.observe" ~start:r.act1.(i) ~stop:r.hook.(i + 1) ~parent)
  done;
  ignore (add_span s ~name:"engine.finish" ~start:r.act1.(n - 1) ~stop:engine_stop ~parent)

let write_spans s path =
  let oc = open_out path in
  for i = 0 to s.len - 1 do
    let sp = s.items.(i) in
    Printf.fprintf oc "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n"
      i sp.name sp.start sp.stop sp.parent
  done;
  close_out oc
