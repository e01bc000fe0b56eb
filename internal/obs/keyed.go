package obs

import "strings"

// Keyed instruments are the sanctioned path for per-key metric series
// (per-tenant counters, per-phase histograms). The registry has no
// label support, so a keyed instrument folds a sanitized key into the
// metric name — but the BASE name stays a compile-time constant at the
// registration site, which is what the metrichygiene analyzer enforces:
// the exported vocabulary is greppable, and only the key suffix varies
// at runtime. Children are get-or-create through the registry, so a
// keyed instrument is just a name factory; it holds no state.

// KeyedCounter derives per-key counters from one constant base name.
type KeyedCounter struct {
	r          *Registry
	base, help string
}

// KeyedCounter returns a per-key counter family with the given base
// name; each distinct key materialises the counter base_<key>.
func (r *Registry) KeyedCounter(base, help string) *KeyedCounter {
	return &KeyedCounter{r: r, base: base, help: help}
}

// WithKey returns the child counter for key, creating it on first use.
func (k *KeyedCounter) WithKey(key string) *Counter {
	return k.r.Counter(k.base+"_"+SanitizeKey(key), k.help)
}

// KeyedHistogram derives per-key histograms from one constant base name
// and one shared bucket layout.
type KeyedHistogram struct {
	r          *Registry
	base, help string
	bounds     []float64
}

// KeyedHistogram returns a per-key histogram family; nil bounds select
// DefDurationBuckets, and every child shares the layout so per-key
// series stay comparable.
func (r *Registry) KeyedHistogram(base, help string, bounds []float64) *KeyedHistogram {
	return &KeyedHistogram{r: r, base: base, help: help, bounds: bounds}
}

// WithKey returns the child histogram for key, creating it on first use.
func (k *KeyedHistogram) WithKey(key string) *Histogram {
	return k.r.Histogram(k.base+"_"+SanitizeKey(key), k.help, k.bounds)
}

// SanitizeKey maps a free-form key (a tenant identity, a phase label)
// onto Prometheus metric-name characters; the empty key becomes "anon".
// On [A-Za-z0-9_-] the map is one-to-one ('-' becomes ':'); any other
// character folds to '_'.
func SanitizeKey(key string) string {
	if key == "" {
		return "anon"
	}
	var b strings.Builder
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r == '-':
			b.WriteByte(':')
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
