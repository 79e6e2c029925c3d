# Parks, wake-ups and yields of a Go benchmark's client goroutines, read
# from the text dump of an execution trace:
#
#   go tool trace -d=parsed trace.out | awk -f scripts/wakeups.awk
#   ... | awk -v clientfn='server\.\(\*session\)\.run' -f scripts/wakeups.awk
#
# A client is a goroutine whose stack ever shows a function matching the
# regular expression clientfn, by default the RunParallel body. For each
# client the script pairs its transitions: Running -> Waiting (it parks,
# at the first ipa/ frame of its stack that is not the sim lock helper)
# with Waiting -> Runnable (an unlock or send wakes it: the time parked),
# and that with the next Runnable -> Running (its processor runs it: the
# wake-up latency, which on a virtual machine includes waking the
# processor's thread). Yields and preemptions go Running -> Runnable and
# are counted apart, with their time from Runnable to Running. Prints the
# totals, the wake-up time per 1000 ms of client time (first to last
# transition of each client, summed), the parks by where the client
# waited and the yields by where it yielded. POSIX awk.

function finish() {
	if (g == "")
		return
	if (!(g in first))
		first[g] = t
	last[g] = t
	where = reason " " (site == "" ? "-" : site)
	if (tr == "Running->Waiting") {
		parkAt[g] = t
		parkSite[g] = where
	} else if (tr == "Waiting->Runnable" && (g in parkAt)) {
		wokeAt[g] = t
		np++; pG[np] = g; pD[np] = t - parkAt[g]; pS[np] = parkSite[g]
		delete parkAt[g]
	} else if (tr == "Running->Runnable") {
		readyAt[g] = t
		readySite[g] = where
	} else if (tr == "Runnable->Running" && (g in wokeAt)) {
		nw++; wG[nw] = g; wD[nw] = t - wokeAt[g]; wS[nw] = parkSite[g]
		delete wokeAt[g]
	} else if (tr == "Runnable->Running" && (g in readyAt)) {
		ny++; yG[ny] = g; yD[ny] = t - readyAt[g]; yS[ny] = readySite[g]
		delete readyAt[g]
	}
	g = ""
}

# quant(a, n, p): the p-quantile of a[1..n], which it sorts.
function quant(a, n, p,   i, j, x) {
	if (n == 0)
		return 0
	for (i = 2; i <= n; i++) {
		x = a[i]
		for (j = i - 1; j >= 1 && a[j] > x; j--)
			a[j + 1] = a[j]
		a[j + 1] = x
	}
	return a[int((n - 1) * p) + 1]
}

BEGIN {
	if (clientfn == "")
		clientfn = "RunParallel\\.func1"
}

/^M=/ {
	finish()
	mode = ""
	if ($0 !~ / StateTransition / || $0 !~ / Resource=Goroutine\(/)
		next
	g = $0; sub(/.* GoID=/, "", g); sub(/ .*/, "", g)
	t = $0; sub(/.* Time=/, "", t); sub(/ .*/, "", t); t += 0
	tr = $NF
	reason = $0; sub(/.* Reason="/, "", reason); sub(/".*/, "", reason)
	if (reason == "")
		reason = "-"
	site = ""
	next
}
/^TransitionStack=/ { mode = "own"; next }
/^Stack=/ { mode = ""; next }
mode == "own" && /^\t[^\t]/ {
	if ($1 ~ clientfn)
		client[g] = 1
	if (site == "" && $1 ~ /^ipa\// && $1 !~ /\/sim\.R?Lock/) {
		site = $1
		sub(/^ipa\/internal\//, "", site)
	}
}
END {
	finish()
	for (c in client) {
		nc++
		span += last[c] - first[c]
	}
	if (nc == 0) {
		print "no client goroutine in the trace"
		exit 1
	}
	n = 0
	for (i = 1; i <= np; i++)
		if (pG[i] in client) {
			parked += pD[i]; a[++n] = pD[i]
			parks[pS[i]]++; parkedFor[pS[i]] += pD[i]
		}
	printf "clients %d, %.1f ms of client time\n", nc, span / 1e6
	printf "parks %d, %.2f ms parked, median %.1f us\n", n, parked / 1e6, quant(a, n, 0.5) / 1e3
	n = 0
	for (i = 1; i <= nw; i++)
		if (wG[i] in client) {
			waking += wD[i]; b[++n] = wD[i]
			wakingFor[wS[i]] += wD[i]
		}
	printf "wake-ups %d, %.2f ms from wake-up to running, median %.1f us, p90 %.1f us: %.1f ms per 1000 ms of client time\n", \
		n, waking / 1e6, quant(b, n, 0.5) / 1e3, quant(b, n, 0.9) / 1e3, 1000 * waking / span
	n = 0
	for (i = 1; i <= ny; i++)
		if (yG[i] in client) {
			readying += yD[i]; n++
			yields[yS[i]]++; readyFor[yS[i]] += yD[i]
		}
	printf "yields and preemptions %d, %.2f ms from runnable to running\n", n, readying / 1e6
	printf "%7s %10s %10s  %s\n", "parks", "parked_ms", "wake_ms", "reason and where the client waited"
	for (s in parks)
		printf "%7d %10.2f %10.2f  %s\n", parks[s], parkedFor[s] / 1e6, wakingFor[s] / 1e6, s | "sort -k1,1nr | head -n 15"
	close("sort -k1,1nr | head -n 15")
	printf "%7s %10s  %s\n", "yields", "ready_ms", "reason and where the client yielded or was preempted"
	for (s in yields)
		printf "%7d %10.2f  %s\n", yields[s], readyFor[s] / 1e6, s | "sort -k1,1nr | head -n 10"
	close("sort -k1,1nr | head -n 10")
}
