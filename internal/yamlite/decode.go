package yamlite

import (
	"fmt"
	"reflect"
	"strings"
)

// Decode maps a parsed YAML value (map[string]any / []any / scalars) onto a
// Go value via reflection. Struct fields use the `yaml:"name"` tag, falling
// back to a case-insensitive field-name match. Unknown keys are ignored,
// mirroring Kubernetes' tolerant decoding.
func Decode(v any, out any) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("yamlite: Decode target must be a non-nil pointer, got %T", out)
	}
	return assign(v, rv.Elem(), "")
}

func assign(v any, dst reflect.Value, path string) error {
	if v == nil {
		return nil // leave zero value
	}
	// Interface targets take the raw value.
	if dst.Kind() == reflect.Interface && dst.NumMethod() == 0 {
		dst.Set(reflect.ValueOf(v))
		return nil
	}
	if dst.Kind() == reflect.Pointer {
		if dst.IsNil() {
			dst.Set(reflect.New(dst.Type().Elem()))
		}
		return assign(v, dst.Elem(), path)
	}
	switch dst.Kind() {
	case reflect.Struct:
		m, ok := v.(map[string]any)
		if !ok {
			return fmt.Errorf("yamlite: %s: cannot decode %T into struct %s", path, v, dst.Type())
		}
		return assignStruct(m, dst, path)
	case reflect.Map:
		m, ok := v.(map[string]any)
		if !ok {
			return fmt.Errorf("yamlite: %s: cannot decode %T into map", path, v)
		}
		if dst.IsNil() {
			dst.Set(reflect.MakeMap(dst.Type()))
		}
		for k, mv := range m {
			val := reflect.New(dst.Type().Elem()).Elem()
			if err := assign(mv, val, path+"."+k); err != nil {
				return err
			}
			dst.SetMapIndex(reflect.ValueOf(k), val)
		}
		return nil
	case reflect.Slice:
		s, ok := v.([]any)
		if !ok {
			return fmt.Errorf("yamlite: %s: cannot decode %T into slice", path, v)
		}
		out := reflect.MakeSlice(dst.Type(), len(s), len(s))
		for i, item := range s {
			if err := assign(item, out.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		dst.Set(out)
		return nil
	case reflect.String:
		switch t := v.(type) {
		case string:
			dst.SetString(t)
		case bool:
			dst.SetString(fmt.Sprintf("%v", t))
		case int64:
			dst.SetString(fmt.Sprintf("%d", t))
		case float64:
			dst.SetString(fmt.Sprintf("%g", t))
		default:
			return fmt.Errorf("yamlite: %s: cannot decode %T into string", path, v)
		}
		return nil
	case reflect.Bool:
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("yamlite: %s: cannot decode %T into bool", path, v)
		}
		dst.SetBool(b)
		return nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		switch t := v.(type) {
		case int64:
			dst.SetInt(t)
		case float64:
			dst.SetInt(int64(t))
		default:
			return fmt.Errorf("yamlite: %s: cannot decode %T into int", path, v)
		}
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		switch t := v.(type) {
		case int64:
			dst.SetUint(uint64(t))
		case float64:
			dst.SetUint(uint64(t))
		default:
			return fmt.Errorf("yamlite: %s: cannot decode %T into uint", path, v)
		}
		return nil
	case reflect.Float32, reflect.Float64:
		switch t := v.(type) {
		case float64:
			dst.SetFloat(t)
		case int64:
			dst.SetFloat(float64(t))
		default:
			return fmt.Errorf("yamlite: %s: cannot decode %T into float", path, v)
		}
		return nil
	}
	return fmt.Errorf("yamlite: %s: unsupported target kind %s", path, dst.Kind())
}

func assignStruct(m map[string]any, dst reflect.Value, path string) error {
	t := dst.Type()
	for i := 0; i < t.NumField(); i++ {
		field := t.Field(i)
		if !field.IsExported() {
			continue
		}
		name := field.Tag.Get("yaml")
		if idx := strings.Index(name, ","); idx >= 0 {
			name = name[:idx]
		}
		if name == "-" {
			continue
		}
		var val any
		var found bool
		if name != "" {
			val, found = m[name]
		} else {
			// Case-insensitive fallback on the field name.
			for k, v := range m {
				if strings.EqualFold(k, field.Name) {
					val, found = v, true
					break
				}
			}
		}
		if !found {
			continue
		}
		if err := assign(val, dst.Field(i), path+"."+field.Name); err != nil {
			return err
		}
	}
	return nil
}

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

// GetString returns the string at path, or def.
func GetString(v any, path, def string) string {
	if s, ok := Get(v, path).(string); ok {
		return s
	}
	return def
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
