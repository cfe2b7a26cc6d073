(** The fruit buffer of Figure 1.

    Honest players store every valid fruit they hear of — whether broadcast
    on its own or carried inside a (possibly later abandoned) block — and on
    every block they mine include all buffered fruits that are recent w.r.t.
    their chain and not already recorded in it. Keeping fruits that are
    currently recorded is deliberate: if the recording block is orphaned by
    a reorg, the fruit becomes includable again, which is exactly the
    mechanism by which FruitChain neutralizes block-erasing attacks.

    The buffer maintains the candidate set (recent ∧ not recorded)
    incrementally. Single fruits are classified on arrival. When the
    owner's head moves, only fruits hanging from or recorded in the blocks
    that entered or left the recency window are reclassified: {!advance}
    for a one-block extension, {!switch} for any other move (reorgs,
    long extensions). Between head moves, mining reads a cached,
    canonically sorted candidate list. Fruits whose hang point has dropped
    below the recency window can never be recorded again and are pruned. *)

open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

type t

val create : ?enforce_recency:bool -> unit -> t
(** [enforce_recency] (default [true]) mirrors {!Params.t.enforce_recency}:
    when off, fruits are never ruled out (or pruned) by pointer age. *)

val size : t -> int
(** Fruits currently retained. *)

val mem : t -> Hash.t -> bool

val add : t -> view:Window_view.t -> Types.fruit -> unit
(** Insert a fruit (idempotent) and classify it against the current view. *)

val refresh : t -> store:Store.t -> view:Window_view.t -> unit
(** Re-classify the whole buffer against [view] and prune every fruit whose
    hang point is a stored block below the window. O(buffer size). This is
    the reference {!switch} reproduces exactly; the simulator's head moves
    all go through {!advance} or {!switch}. *)

val switch : t -> store:Store.t -> from_view:Window_view.t -> to_view:Window_view.t -> unit
(** Move the buffer from [from_view] — the view it was last classified
    against by {!add}, {!advance}, {!refresh} or {!switch} — to [to_view],
    for any two stored heads. Leaves the same candidates and the same
    retained fruits as [refresh ~view:to_view], but reclassifies only the
    fruits hanging from or recorded in the symmetric difference of the two
    windows (the abandoned branch, the adopted branch, the blocks between
    the two window bottoms), and prunes through an index of hang points by
    store height. Costs O(fork depth + window) parent steps plus the
    affected fruits, not O(buffer). *)

val advance : t -> view:Window_view.t -> block:Types.block -> unit
(** Incremental update for the common case: the owner's chain grew by
    exactly [block] and [view] is the extended view. Removes the block's
    fruits from the candidate set, expires fruits hanging from the block
    that left the window, and admits buffered fruits hanging from the new
    head. O(affected fruits), not O(buffer). *)

val candidates : t -> Types.fruit list
(** The current F′: buffered fruits that are recent and not recorded,
    sorted by reference (a canonical order shared by all honest miners).
    O(1) when nothing changed since the last call. *)

val candidate_count : t -> int
