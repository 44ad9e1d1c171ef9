"""Vocabularies shared by the synthetic dataset generators.

The word pools are modelled on the examples the paper gives: GPS / phone /
camera products with reviewer opinions (pros, cons, best uses), outdoor brands
with product categories and technical attributes, and IMDB-style movies with
genres, keywords, cast and production metadata.  Keeping them in one module
makes the generators small and lets tests assert that query keywords (e.g.
"tomtom", "gps", "jackets") actually occur in the generated corpora.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["ProductVocabulary", "OutdoorVocabulary", "MovieVocabulary"]


@dataclass(frozen=True)
class ProductVocabulary:
    """Word pools for the Product Reviews dataset (buzzillions substitute)."""

    categories: Tuple[str, ...] = ("GPS", "mobile phone", "digital camera")

    brands: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "GPS": ("TomTom", "Garmin", "Magellan", "Navigon"),
            "mobile phone": ("Nokia", "Motorola", "Samsung", "BlackBerry"),
            "digital camera": ("Canon", "Nikon", "Sony", "Olympus"),
        }
    )

    model_lines: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "GPS": ("Go", "Nuvi", "RoadMate", "One"),
            "mobile phone": ("Curve", "Razr", "Galaxy", "Lumia"),
            "digital camera": ("PowerShot", "Coolpix", "Cybershot", "Stylus"),
        }
    )

    suffixes: Tuple[str, ...] = ("Portable", "BOX", "Wide", "Traffic", "Deluxe", "Slim")

    pros: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "GPS": (
                "compact",
                "easy_to_read",
                "easy_to_setup",
                "acquires_satellites_quickly",
                "large_screen",
                "accurate_directions",
                "good_value",
                "spoken_street_names",
                "fast_routing",
                "long_battery_life",
            ),
            "mobile phone": (
                "compact",
                "good_reception",
                "long_battery_life",
                "large_screen",
                "easy_to_use",
                "good_camera",
                "loud_speaker",
                "sturdy_build",
                "fast_interface",
                "good_value",
            ),
            "digital camera": (
                "compact",
                "sharp_pictures",
                "fast_shutter",
                "good_low_light",
                "large_screen",
                "easy_to_use",
                "long_battery_life",
                "good_value",
                "image_stabilisation",
                "powerful_zoom",
            ),
        }
    )

    cons: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "GPS": (
                "short_battery_life",
                "slow_recalculation",
                "outdated_maps",
                "weak_mount",
                "glare_in_sunlight",
                "expensive_updates",
            ),
            "mobile phone": (
                "short_battery_life",
                "dropped_calls",
                "small_keys",
                "slow_interface",
                "poor_camera",
                "fragile_screen",
            ),
            "digital camera": (
                "short_battery_life",
                "slow_startup",
                "noisy_images",
                "weak_flash",
                "small_buttons",
                "bulky_body",
            ),
        }
    )

    best_uses: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "GPS": ("auto", "travel", "hiking", "commuting", "delivery"),
            "mobile phone": ("business", "travel", "texting", "music", "photos"),
            "digital camera": ("travel", "family", "sports", "landscapes", "events"),
        }
    )

    reviewer_types: Tuple[str, ...] = (
        "casual_user",
        "power_user",
        "first_time_buyer",
        "professional",
        "frequent_traveler",
    )

    locations: Tuple[str, ...] = (
        "Phoenix",
        "Seattle",
        "Austin",
        "Boston",
        "Denver",
        "Chicago",
        "Portland",
        "Atlanta",
    )

    first_names: Tuple[str, ...] = (
        "Alex",
        "Jordan",
        "Taylor",
        "Morgan",
        "Casey",
        "Riley",
        "Jamie",
        "Avery",
        "Quinn",
        "Dana",
    )


@dataclass(frozen=True)
class OutdoorVocabulary:
    """Word pools for the Outdoor Retailer dataset (REI substitute)."""

    brands: Tuple[str, ...] = (
        "Marmot",
        "Columbia",
        "Patagonia",
        "NorthRidge",
        "Cascade",
        "TrailForge",
    )

    categories: Tuple[str, ...] = ("jackets", "footwear", "bicycles", "tents", "packs")

    subcategories: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "jackets": ("rain_jacket", "insulated_ski_jacket", "softshell", "down_parka", "windbreaker"),
            "footwear": ("hiking_boot", "trail_runner", "approach_shoe", "sandal"),
            "bicycles": ("road_bike", "mountain_bike", "commuter_bike", "gravel_bike"),
            "tents": ("backpacking_tent", "family_tent", "ultralight_tent"),
            "packs": ("daypack", "overnight_pack", "expedition_pack", "hydration_pack"),
        }
    )

    genders: Tuple[str, ...] = ("men", "women", "unisex")

    materials: Tuple[str, ...] = (
        "gore_tex",
        "nylon_ripstop",
        "polyester_fleece",
        "merino_wool",
        "aluminium",
        "carbon_fiber",
    )

    attributes: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "jackets": ("waterproof", "insulated", "breathable", "packable", "hooded", "windproof"),
            "footwear": ("waterproof", "breathable", "lightweight", "high_traction", "wide_fit"),
            "bicycles": ("disc_brakes", "suspension", "tubeless_tires", "electric_assist", "drop_bars"),
            "tents": ("freestanding", "three_season", "four_season", "vestibule", "ultralight"),
            "packs": ("hip_belt", "rain_cover", "hydration_compatible", "frame", "ultralight"),
        }
    )

    features_numeric: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "bicycles": ("number_of_gears", "wheel_size", "frame_size"),
            "packs": ("volume_liters", "weight_grams"),
            "tents": ("capacity", "weight_grams"),
            "jackets": ("weight_grams",),
            "footwear": ("weight_grams",),
        }
    )


@dataclass(frozen=True)
class MovieVocabulary:
    """Word pools for the IMDB dataset substitute."""

    title_heads: Tuple[str, ...] = (
        "The Last",
        "Return of the",
        "Midnight",
        "Silent",
        "Broken",
        "Golden",
        "Crimson",
        "Endless",
        "Forgotten",
        "Rising",
    )

    title_tails: Tuple[str, ...] = (
        "Horizon",
        "Empire",
        "Voyage",
        "Garden",
        "Detective",
        "Symphony",
        "Frontier",
        "Harvest",
        "Outlaw",
        "Winter",
    )

    genres: Tuple[str, ...] = (
        "drama",
        "comedy",
        "action",
        "thriller",
        "romance",
        "documentary",
        "western",
        "science_fiction",
        "horror",
        "animation",
    )

    keywords: Tuple[str, ...] = (
        "revenge",
        "family",
        "heist",
        "war",
        "friendship",
        "betrayal",
        "road_trip",
        "small_town",
        "courtroom",
        "space",
        "monster",
        "undercover",
        "romown",
        "redemption",
        "survival",
    )

    first_names: Tuple[str, ...] = (
        "James",
        "Maria",
        "Robert",
        "Linda",
        "David",
        "Susan",
        "Carlos",
        "Emma",
        "Viktor",
        "Aiko",
        "Priya",
        "Lars",
    )

    last_names: Tuple[str, ...] = (
        "Stewart",
        "Garcia",
        "Kowalski",
        "Tanaka",
        "Olsen",
        "Moreau",
        "Petrov",
        "Okafor",
        "Silva",
        "Novak",
        "Keller",
        "Brandt",
    )

    countries: Tuple[str, ...] = (
        "USA",
        "France",
        "Japan",
        "Germany",
        "Brazil",
        "India",
        "Sweden",
        "Italy",
    )

    languages: Tuple[str, ...] = (
        "english",
        "french",
        "japanese",
        "german",
        "portuguese",
        "hindi",
        "swedish",
        "italian",
    )

    certificates: Tuple[str, ...] = ("G", "PG", "PG-13", "R")

    studios: Tuple[str, ...] = (
        "Sunrise Pictures",
        "Blue Harbor Films",
        "Northlight Studios",
        "Meridian Entertainment",
        "Cedar Gate Productions",
    )
