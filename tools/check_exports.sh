#!/bin/sh
# Every value a lib/ interface exports must have a user outside its own
# module: an export nobody names is dead surface (delete it) or an
# internal helper (drop it from the .mli).  A user is any .ml under
# lib/, bin/, bench/, test/, perfbench/ or examples/ other than the
# exporting module's own .ml that mentions the name as a whole word —
# a deliberately loose match, so a flagged name is certainly unused.
# Run from the repository root.
set -eu

users=$(find lib bin bench test perfbench examples -name '*.ml' 2>/dev/null | sort)
unused=0
for mli in $(find lib -name '*.mli' | sort); do
  own="${mli%i}"
  module=$(basename "$own" .ml | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    # shellcheck disable=SC2086
    if ! grep -lw -- "$name" $users | grep -qvx -- "$own"; then
      echo "unused export: $module.$name ($mli)"
      unused=$((unused + 1))
    fi
  done
done

if [ "$unused" -ne 0 ]; then
  echo "$unused lib/ export(s) have no user outside their own module" >&2
  exit 1
fi
echo "ok: every lib/ export has a user outside its own module"
