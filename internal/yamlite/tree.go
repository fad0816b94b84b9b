package yamlite

import (
	"fmt"
	"strings"
)

// Get walks a parsed tree by dotted path ("image.repository"); numeric path
// segments index sequences. It returns nil when any segment is missing.
func Get(v any, path string) any {
	if path == "" {
		return v
	}
	for _, seg := range strings.Split(path, ".") {
		switch t := v.(type) {
		case map[string]any:
			v = t[seg]
		case []any:
			var idx int
			if _, err := fmt.Sscanf(seg, "%d", &idx); err != nil || idx < 0 || idx >= len(t) {
				return nil
			}
			v = t[idx]
		default:
			return nil
		}
	}
	return v
}

// Merge deep-merges override onto base (maps merge recursively; anything else
// is replaced), returning a new tree. Helm-style values layering.
func Merge(base, override any) any {
	bm, bok := base.(map[string]any)
	om, ook := override.(map[string]any)
	if !bok || !ook {
		if override == nil {
			return base
		}
		return override
	}
	out := map[string]any{}
	for k, v := range bm {
		out[k] = v
	}
	for k, v := range om {
		out[k] = Merge(out[k], v)
	}
	return out
}
