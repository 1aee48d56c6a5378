(** Merkle hash trees (eq. 6 and Figure 3 of the paper): one
    persistent, path-copying, rank-annotated tree serves both the
    Protocol III result commitment and the dynamic-storage layer.

    Leaves are SHA-256 hashes of caller-supplied payloads; internal
    nodes are Ω(V) = H(Ω(left) ‖ Ω(right)).  The shape is canonical:
    the left child of a node over [n] leaves is the perfect subtree of
    the largest power of two strictly below [n], so an odd node at any
    level is promoted unchanged and a single-leaf tree has root = leaf
    hash.

    - {!modify} and {!append} are O(log n) hashes, all untouched nodes
      shared between versions;
    - {!proof}s carry the sibling sets the cloud server returns in the
      Audit Response step, annotated with sibling ranks, and {!verify}
      recomputes the expected path geometry from the (signed) total
      and claimed index, so position is bound as strongly as content —
      the data dynamics of Wang-style public auditing
      (arXiv:1405.6263, arXiv:1612.08029) on SecCloud's tree;
    - {!Frontier} is the O(log n) owner-side digest state that makes
      appends local (no fetch-all-leaf-hashes round trip). *)

type t
(** Immutable; every operation returns a new version sharing structure
    with the old one. *)

type side = L | R

type proof = {
  index : int;  (** claimed leaf position *)
  total : int;  (** leaf count at proof time *)
  path : (side * int * string) list;
      (** bottom-up: sibling side, sibling rank (leaf count), sibling
          hash *)
}

val leaf_hash : string -> string
(** Domain-separated hash of a leaf payload. *)

val build : string list -> t
(** From leaf payloads (hashed internally).
    @raise Invalid_argument on the empty list. *)

val of_leaf_hashes : string list -> t
(** From precomputed leaf hashes.
    @raise Invalid_argument on the empty list. *)

val root : t -> string
val size : t -> int

val leaf : t -> int -> string
(** Stored hash of leaf [i]. @raise Invalid_argument out of bounds. *)

val leaf_hashes : t -> string list

val modify : t -> int -> string -> t
(** [modify t i h] replaces leaf [i]'s hash: O(log n).
    @raise Invalid_argument out of bounds. *)

val append : t -> string -> t
(** Add a leaf hash at index [size t]: O(log n). *)

val proof : t -> int -> proof
(** Rank-annotated authentication path: O(log n).
    @raise Invalid_argument out of bounds. *)

val root_of_proof : leaf_hash:string -> proof -> string
(** Fold a leaf hash through the path without any geometry check:
    with a new leaf hash, the post-modify root. *)

val check_geometry : proof -> bool
(** Just the positional half of {!verify}: sides and sibling ranks
    equal the canonical decomposition of [index] within [total]. *)

val verify : root:string -> leaf_hash:string -> proof -> bool
(** Checks the path geometry (sides and sibling ranks must equal the
    canonical decomposition of [proof.index] within [proof.total] —
    pure arithmetic, so a lying server cannot relocate a leaf) and the
    hash chain against [root].  The caller must bind [proof.index] to
    the position it asked for and [proof.total] to a signed count. *)

val verify_proof : root:string -> leaf_payload:string -> proof -> bool
(** {!verify} on a leaf payload. *)

val expected_geometry : total:int -> index:int -> (side * int) list
(** The bottom-up sibling (side, rank) sequence the canonical shape
    dictates for [index] among [total] leaves; exposed for tests. *)

val equal_root : t -> t -> bool

(** Owner-side append state: the <= log2(n)+1 perfect-subtree roots
    named by the binary representation of the leaf count.  The
    canonical root is their right-fold, so a client holding a frontier
    can append and re-root locally — O(log n) state, zero server
    round-trips. *)
module Frontier : sig
  type frontier = (int * string) list
  (** (rank, hash) pairs, decreasing ranks. *)

  val of_tree : t -> frontier
  val total : frontier -> int

  val root : frontier -> string
  (** @raise Invalid_argument on the empty frontier. *)

  val append : frontier -> string -> frontier
  (** Binary-counter increment: O(1) amortized, O(log n) worst. *)

  val modify : frontier -> proof -> leaf_hash:string -> frontier
  (** Re-root after replacing the proved leaf: folds the in-block
      prefix of the (already verified) path onto the one affected
      frontier block. *)
end
