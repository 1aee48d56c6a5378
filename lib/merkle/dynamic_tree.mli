(** Alias of {!Tree}, kept for the one caller that still names it. *)

include module type of struct include Tree end
