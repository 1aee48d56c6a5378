(** Designated-verifier signatures (§V-B of the paper).

    Instead of publishing the raw signature component V, the signer
    publishes Σ_B = ê(V, Q_B) for each designated verifier B (the
    cloud server and the designated agency in SecCloud).  Only a party
    holding sk_B can check

      Σ_B = ê(U + H2(U‖m)·Q_ID, sk_B)

    and — crucially for the privacy-cheating-discouragement model —
    any such party can also *simulate* valid-looking tuples with
    {!simulate}, so a transcript convinces nobody else (§VII-B). *)

open Sc_ec

type t = { u : Curve.point; sigma : Sc_pairing.Tate.gt }

val designate : Setup.public -> Ibs.t -> verifier:string -> t
(** Transforms a raw signature for the given verifier identity. *)

type table
(** One signer's designation table for one verifier: the fixed-base
    powers of ê(sk_ID, Q_B).  That element is the key the two
    identities share, so a table is exactly as secret as sk_ID. *)

val table : Setup.public -> Setup.identity_key -> verifier:string -> table
(** Costs one H1, one pairing and about 1.4·|q| F_p² operations. *)

val sigma : table -> Sc_bignum.Nat.t -> Sc_pairing.Tate.gt
(** [sigma t k] is the designation ê(k·sk_ID, Q_B) of V = k·sk_ID,
    bit for bit what {!designate} computes from V, without forming V
    or running a pairing.  [k] must lie in [\[0, q)]. *)

val verifier :
  Setup.public ->
  verifier_key:Setup.identity_key ->
  signer:string ->
  msg:string ->
  t ->
  bool
(** {!verify} staged for many signatures of one signer: applied to
    the keys and the signer it hashes H1(signer) once. *)

val verify :
  Setup.public ->
  verifier_key:Setup.identity_key ->
  signer:string ->
  msg:string ->
  t ->
  bool

val simulate :
  Setup.public ->
  verifier_key:Setup.identity_key ->
  signer:string ->
  msg:string ->
  bytes_source:(int -> string) ->
  t
(** A forgery computed with the *verifier's* key: indistinguishable
    from a real signature and accepted by {!verify}.  Its existence is
    what discourages the verifier from reselling transcripts. *)
