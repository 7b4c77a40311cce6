#!/bin/sh
# threadcpu.sh <pid> [seconds]: per-thread CPU ticks (utime+stime) and
# voluntary context switches of a process over an interval (default 5 s),
# with the syscall each thread sits in (its number, or "running").
pid=${1:?usage: threadcpu.sh <pid> [seconds]}; secs=${2:-5}
snap() { for t in /proc/"$pid"/task/*; do
	echo "${t##*/} $(sed 's/.*) //' "$t/stat" | awk '{print $12 + $13}')" \
		"$(awk '/^voluntary/ {print $2}' "$t/status") $(cut -d' ' -f1 "$t/syscall" 2>/dev/null)"
done; }
a=$(snap); sleep "$secs"; b=$(snap)
printf '%s\n%s\n' "$a" "$b" | awk -v s="$secs" '
	!($1 in tick) { tick[$1] = $2; sw[$1] = $3; next }
	{ printf "tid %-8s ticks %4d  vol_ctxsw/s %8.0f  syscall %s\n", $1, $2 - tick[$1], ($3 - sw[$1]) / s, $4 }'
