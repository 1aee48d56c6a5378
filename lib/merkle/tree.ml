(* Persistent, path-copying, rank-annotated Merkle tree.

   Shape: an interior node over [n] leaves is (perfect left subtree of
   [split n] leaves, rest), where [split n] is the largest power of two
   strictly below [n].  Level by level this is plain pairwise hashing
   with a trailing odd node promoted unchanged, so a single-leaf tree
   has root = leaf hash.  Nodes are immutable, so

   - [modify] / [append] copy one root-to-leaf path: O(log n) hashes,
     everything else is shared between versions;
   - every node carries its leaf count (rank, in the sense of the
     Wang-style public-auditing data-dynamics line), and proofs export
     the sibling ranks: because the shape is a function of the leaf
     count alone, a verifier that knows the *signed* total recomputes
     the expected turn directions and sibling sizes for a claimed index
     and rejects any path whose geometry disagrees — position binding
     without trusting the server's ranks. *)

type node =
  | Leaf of string
  | Node of { h : string; n : int; l : node; r : node }

type t = node

module Telemetry = Sc_telemetry.Telemetry

let c_builds = Telemetry.counter "merkle.builds"
let c_leaves = Telemetry.counter "merkle.leaves_built"
let c_proofs = Telemetry.counter "merkle.proofs_issued"
let c_proof_checks = Telemetry.counter "merkle.proof_checks"
let c_modify = Telemetry.counter "merkle.dynamic.update"
let c_append = Telemetry.counter "merkle.dynamic.append"

let leaf_hash payload = Sc_hash.Sha256.digest_concat [ "leaf:"; payload ]
let node_hash left right = Sc_hash.Sha256.digest_concat [ "node:"; left; right ]
let size = function Leaf _ -> 1 | Node { n; _ } -> n
let hash = function Leaf h -> h | Node { h; _ } -> h
let root = hash

let mk l r =
  Node { h = node_hash (hash l) (hash r); n = size l + size r; l; r }

(* Largest power of two strictly below [n] (n >= 2): the canonical
   left-subtree span. *)
let split n =
  let rec go p = if p * 2 < n then go (p * 2) else p in
  go 1

let is_pow2 n = n land (n - 1) = 0

let rec build_range arr lo n =
  if n = 1 then Leaf arr.(lo)
  else
    let s = split n in
    mk (build_range arr lo s) (build_range arr (lo + s) (n - s))

let of_leaf_hashes hashes =
  if hashes = [] then invalid_arg "Merkle.build: empty leaf list";
  let arr = Array.of_list hashes in
  build_range arr 0 (Array.length arr)

let build payloads =
  Telemetry.incr c_builds;
  Telemetry.add c_leaves (List.length payloads);
  Telemetry.with_span ~name:"merkle.build"
    ~attrs:[ "leaves", string_of_int (List.length payloads) ]
    (fun () -> of_leaf_hashes (List.map leaf_hash payloads))

let rec leaf t i =
  match t with
  | Leaf h -> h
  | Node { l; r; _ } ->
    let sl = size l in
    if i < sl then leaf l i else leaf r (i - sl)

let leaf t i =
  if i < 0 || i >= size t then invalid_arg "Merkle.leaf: index out of bounds";
  leaf t i

let leaf_hashes t =
  let rec go t acc = match t with
    | Leaf h -> h :: acc
    | Node { l; r; _ } -> go l (go r acc)
  in
  go t []

(* --- O(log n) point operations ------------------------------------- *)

let modify t i h =
  if i < 0 || i >= size t then
    invalid_arg "Merkle.modify: index out of bounds";
  Telemetry.incr c_modify;
  let rec go t i =
    match t with
    | Leaf _ -> Leaf h
    | Node { l; r; _ } ->
      let sl = size l in
      if i < sl then mk (go l i) r else mk l (go r (i - sl))
  in
  go t i

(* Canonical append: if [n] is a power of two the whole old tree
   becomes the (perfect) left child; otherwise the left child is
   untouched and the append recurses down the right spine. *)
let append t h =
  Telemetry.incr c_append;
  let rec go t =
    match t with
    | Leaf _ -> mk t (Leaf h)
    | Node { n; l; r; _ } -> if is_pow2 n then mk t (Leaf h) else mk l (go r)
  in
  go t

(* --- rank proofs ---------------------------------------------------- *)

type side = L | R

(* Leaf-to-root path; each step names the sibling's side, its rank
   (leaf count) and its hash.  [total] is the tree's leaf count at
   proof time, so the proof claims a position *within a stated
   population* — exactly what a signed root statement also binds. *)
type proof = {
  index : int;
  total : int;
  path : (side * int * string) list;
}

let proof t i =
  if i < 0 || i >= size t then invalid_arg "Merkle.proof: index out of bounds";
  Telemetry.incr c_proofs;
  let rec go t i acc =
    match t with
    | Leaf _ -> acc
    | Node { l; r; _ } ->
      let sl = size l in
      if i < sl then go l i ((R, size r, hash r) :: acc)
      else go r (i - sl) ((L, sl, hash l) :: acc)
  in
  { index = i; total = size t; path = go t i [] }

(* Expected geometry of a canonical path for [index] within [total]
   leaves, bottom-up like [proof.path]: the shape is a function of
   [total] alone, so sides and sibling ranks are pure arithmetic — a
   server cannot lie about a leaf's position without breaking the hash
   chain. *)
let expected_geometry ~total ~index =
  let rec go n i acc =
    if n = 1 then acc
    else
      let s = split n in
      if i < s then go s i ((R, n - s) :: acc)
      else go (n - s) (i - s) ((L, s) :: acc)
  in
  go total index []

let root_of_proof ~leaf_hash p =
  List.fold_left
    (fun acc (side, _, sib) ->
      match side with L -> node_hash sib acc | R -> node_hash acc sib)
    leaf_hash p.path

let check_geometry p =
  Telemetry.incr c_proof_checks;
  p.total >= 1
  && p.index >= 0
  && p.index < p.total
  &&
  let geom = expected_geometry ~total:p.total ~index:p.index in
  List.length geom = List.length p.path
  && List.for_all2
       (fun (side, rank) (side', rank', _) -> side = side' && rank = rank')
       geom p.path

let verify ~root:expected_root ~leaf_hash p =
  check_geometry p
  && String.equal expected_root (root_of_proof ~leaf_hash p)

let verify_proof ~root ~leaf_payload p =
  verify ~root ~leaf_hash:(leaf_hash leaf_payload) p

let equal_root a b = String.equal (root a) (root b)

(* --- append-only frontier ------------------------------------------- *)

(* The canonical tree over [n] leaves is the right-fold of the perfect
   subtrees named by the binary representation of [n] (decreasing
   sizes).  A client that keeps just those <= log2(n)+1 (size, hash)
   pairs — not the data, not the tree — can append locally and derive
   every root on its own, with no fetch-all-leaf-hashes round trip. *)

module Frontier = struct
  (* Decreasing sizes; each a perfect subtree root. *)
  type frontier = (int * string) list

  let of_tree t =
    let rec go t acc =
      match t with
      | Leaf h -> (1, h) :: acc
      | Node { n; h; l; r; _ } ->
        if is_pow2 n then (n, h) :: acc else go l (go r acc)
    in
    go t []

  let total (f : frontier) = List.fold_left (fun acc (n, _) -> acc + n) 0 f

  let root = function
    | [] -> invalid_arg "Frontier.root: empty"
    | f ->
      let rec fold = function
        | [ (_, h) ] -> h
        | (_, h) :: rest -> node_hash h (fold rest)
        | [] -> assert false
      in
      fold f

  (* Binary-counter increment with carries on the right: O(log n)
     hashes worst case, O(1) amortized. *)
  let append (f : frontier) h =
    let rec merge = function
      | (n1, h1) :: (n2, h2) :: rest when n1 = n2 ->
        merge ((n1 + n2, node_hash h2 h1) :: rest)
      | f -> f
    in
    List.rev (merge ((1, h) :: List.rev f))

  (* Fold a rank-proof path into the frontier: replacing the leaf at
     [p.index] with [leaf_hash] updates exactly one frontier piece (the
     binary-representation block containing the index); the first
     log2(block) path steps stay inside it.  O(log n), no server data
     beyond the already-verified proof. *)
  let modify (f : frontier) (p : proof) ~leaf_hash =
    let rec go acc before = function
      | [] -> invalid_arg "Frontier.modify: index out of range"
      | (n, h) :: rest ->
        if p.index < before + n then begin
          let rec log2 n = if n = 1 then 0 else 1 + log2 (n / 2) in
          let inner = List.filteri (fun i _ -> i < log2 n) p.path in
          let h' = root_of_proof ~leaf_hash { p with path = inner } in
          List.rev_append acc ((n, h') :: rest)
        end
        else go ((n, h) :: acc) (before + n) rest
    in
    go [] 0 f
end
